//! Per-layer probes for the traced run. Each probe calls one crate's
//! public functions from here, inside spans, on the workload's own
//! inputs: the direct target's encoding and compilation, prefix sweeps,
//! the emitted suite and the CHECK corpus.

use crate::direct::{sweep, Target};
use crate::serve::CheckCase;
use crate::spans::span;
use crate::stats::Samples;
use litsynth_core::perturb::minimality_asserts_opts;
use litsynth_core::{CanonicalSuite, SymbolicTest, SynthConfig};
use litsynth_litmus::{canonical_key_exact, wire};
use litsynth_models::{check, MemoryModel, SymAlg};
use litsynth_relalg::{Bit, CompiledCircuit};
use litsynth_serve::models::{dispatch, ModelOp};
use litsynth_serve::protocol::{read_frame, write_frame};
use litsynth_serve::{Client, ServeConfig, Server};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repeats `f` (one pass over `calls` calls) until at least `min` has
/// elapsed, and returns the mean time per call in microseconds.
fn per_call_us(calls: usize, min: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || t.elapsed() < min {
        f();
        rounds += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / (rounds * calls.max(1)) as f64
}

/// The direct sweep's encoding and compilation, replayed outside the
/// solver exactly as an incremental sweep prebuilds them: one circuit
/// arena across bounds, a skeleton layer per bound (compiled once, then
/// extended), and one definitional layer per axiom.
pub struct Compile {
    pub encode_s: f64,
    pub compile_s: f64,
    pub cnf_vars: usize,
    pub cnf_clauses: usize,
}

pub fn sweep_compile(target: Target) -> Compile {
    struct Op(Target);
    impl ModelOp for Op {
        type Out = Compile;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> Compile {
            let mut out = Compile {
                encode_s: 0.0,
                compile_s: 0.0,
                cnf_vars: 0,
                cnf_clauses: 0,
            };
            let mut alg = SymAlg::new();
            let mut chain: Option<CompiledCircuit> = None;
            for bound in self.0.lo..=self.0.hi {
                let cfg = SynthConfig::new(bound);
                let t = Instant::now();
                let st = span("core", "SymbolicTest::build", bound as u64, || {
                    SymbolicTest::build(&mut alg, model, &cfg)
                });
                let asserts: Vec<Vec<Bit>> = model
                    .axioms()
                    .iter()
                    .map(|&ax| {
                        span("core", "minimality_asserts_opts", bound as u64, || {
                            minimality_asserts_opts(
                                &mut alg,
                                model,
                                &st,
                                ax,
                                cfg.orphan_unconstrained,
                            )
                        })
                    })
                    .collect();
                out.encode_s += t.elapsed().as_secs_f64();
                let roots: Vec<Bit> = st
                    .wellformed
                    .iter()
                    .chain(&st.observables)
                    .chain(st.kind.iter().flatten())
                    .copied()
                    .collect();
                let t = Instant::now();
                let mut link = match &chain {
                    None => span(
                        "relalg",
                        "CompiledCircuit::compile_tagged",
                        bound as u64,
                        || CompiledCircuit::compile_tagged(&alg.circuit, roots, true),
                    ),
                    Some(prev) => span("relalg", "CompiledCircuit::extend", bound as u64, || {
                        CompiledCircuit::extend(prev, &alg.circuit, roots, true)
                    }),
                };
                for ax in &asserts {
                    link = span(
                        "relalg",
                        "CompiledCircuit::extend_definitional",
                        bound as u64,
                        || {
                            CompiledCircuit::extend_definitional(
                                &link,
                                &alg.circuit,
                                ax.iter().copied(),
                                true,
                            )
                        },
                    );
                }
                out.compile_s += t.elapsed().as_secs_f64();
                out.cnf_vars = link.num_vars();
                out.cnf_clauses = link.num_clauses();
                chain = Some(link);
            }
            out
        }
    }
    dispatch(target.model, Op(target)).expect("known model")
}

/// Seconds spent in `CompiledCircuit::compile` over the target's
/// (axiom, bound) units, each encoded into its own arena and compiled
/// monolithically — the path a served cold query's units take.
pub fn unit_compile_s(target: Target) -> f64 {
    struct Op(Target);
    impl ModelOp for Op {
        type Out = f64;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> f64 {
            let mut total = 0.0;
            for bound in self.0.lo..=self.0.hi {
                let cfg = SynthConfig::new(bound);
                for &ax in model.axioms() {
                    let mut alg = SymAlg::new();
                    let st = SymbolicTest::build(&mut alg, model, &cfg);
                    let asserts =
                        minimality_asserts_opts(&mut alg, model, &st, ax, cfg.orphan_unconstrained);
                    let roots: Vec<Bit> = asserts
                        .iter()
                        .chain(&st.observables)
                        .chain(st.kind.iter().flatten())
                        .copied()
                        .collect();
                    let t = Instant::now();
                    let compiled = span("relalg", "CompiledCircuit::compile", bound as u64, || {
                        CompiledCircuit::compile(&alg.circuit, roots)
                    });
                    total += t.elapsed().as_secs_f64();
                    black_box(compiled.num_clauses());
                }
            }
            total
        }
    }
    dispatch(target.model, Op(target)).expect("known model")
}

/// Median wall time of the prefix sweep `lo..=k`, for every `k` below
/// the target's top bound (three runs each).
pub fn prefix_sweeps(target: Target) -> Vec<(usize, f64)> {
    (target.lo..target.hi)
        .map(|k| {
            let prefix = Target { hi: k, ..target };
            let mut s = Samples::default();
            for i in 0..3 {
                s.push(
                    span(
                        "core",
                        "synthesize_union_up_to_with_stats.prefix",
                        i,
                        || sweep(prefix),
                    )
                    .0,
                );
            }
            (k, s.median())
        })
        .collect()
}

/// Mean `canonical_key_exact` time per emitted test, in microseconds.
pub fn canon_us(suite: &CanonicalSuite) -> f64 {
    span("litmus", "canonical_key_exact", 0, || {
        per_call_us(suite.len(), Duration::from_millis(200), || {
            for (t, o) in suite.values() {
                black_box(canonical_key_exact(t, o));
            }
        })
    })
}

/// Mean wire encode and decode time per CHECK case, in microseconds.
pub fn wire_us(cases: &[CheckCase]) -> (f64, f64) {
    let encode = span("litmus", "wire::encode", 0, || {
        per_call_us(cases.len(), Duration::from_millis(200), || {
            for c in cases {
                black_box(wire::encode(&c.test, &c.outcome));
            }
        })
    });
    let decode = span("litmus", "wire::decode", 0, || {
        per_call_us(cases.len(), Duration::from_millis(200), || {
            for c in cases {
                black_box(wire::decode(&c.request.test).expect("corpus encodings decode"));
            }
        })
    });
    (encode, decode)
}

/// Mean in-process `check::forbidden` time per corpus case of `model`, in
/// microseconds.
pub fn check_us(cases: &[CheckCase], model: &'static str) -> f64 {
    struct Op<'a>(&'a [&'a CheckCase]);
    impl ModelOp for Op<'_> {
        type Out = f64;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> f64 {
            per_call_us(self.0.len(), Duration::from_millis(200), || {
                for c in self.0 {
                    black_box(check::forbidden(model, &c.test, &c.outcome));
                }
            })
        }
    }
    let mine: Vec<&CheckCase> = cases.iter().filter(|c| c.model == model).collect();
    span("models", "check::forbidden", 0, || {
        dispatch(model, Op(&mine)).expect("known model")
    })
}

/// Median PING round trip on a fresh loopback server, in microseconds.
pub fn ping_rtt_us() -> f64 {
    let server = Server::start(ServeConfig::default()).expect("loopback server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut s = Samples::default();
    for i in 0..400 {
        let t = Instant::now();
        span("serve", "Client::ping", i, || client.ping()).expect("PING round-trips");
        s.push(t.elapsed());
    }
    drop(client);
    server.shutdown();
    s.median() * 1e6
}

/// Mean `write_frame` + `read_frame` round trip of one frame through an
/// in-memory buffer, in microseconds.
pub fn frame_codec_us(verb: &'static str, body: &str) -> f64 {
    let mut buf = Vec::with_capacity(body.len() + 32);
    span("serve", "write_frame+read_frame", 0, || {
        per_call_us(1, Duration::from_millis(100), || {
            buf.clear();
            write_frame(&mut buf, verb, body).expect("writing to memory succeeds");
            let frame = read_frame(&mut buf.as_slice()).expect("frame reads back");
            black_box(frame);
        })
    })
}
