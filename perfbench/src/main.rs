//! litsynth's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-tso5|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is one closed-loop process that interleaves two kinds
//! of timed operation for `--seconds`: direct
//! `synthesize_union_up_to_with_stats` sweeps of the workload's target,
//! and passes over a fresh loopback server (see `serve.rs`). The workload
//! sets the target and the sweeps' share of the time. Every timed
//! operation's output is checked; failures are counted and make the run
//! exit nonzero.
//!
//! The last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from spans and probes around calls
//! into each crate, see `layers.rs`) with `--trace 1`. Results and spans
//! are also written under `perfbench/out/`.
//!
//! `--emit-expected <model> <lo> <hi>` prints a target's canonical keys,
//! one per line, and on stderr the emitted tests the consistency checker
//! finds observable: the sources of the committed `expected/*.keys` and
//! `expected/*.observable` lists.

mod direct;
mod layers;
mod pin;
mod serve;
mod spans;
mod stats;

use direct::Target;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Workload {
    name: &'static str,
    /// The direct sweeps' target.
    direct: Target,
    /// The direct sweeps' share of `--seconds`; server passes fill the
    /// rest.
    direct_share: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sweep-tso5",
        direct: Target {
            model: "tso",
            lo: 2,
            hi: 5,
        },
        direct_share: 0.65,
    },
    Workload {
        name: "serve",
        direct: Target {
            model: "tso",
            lo: 2,
            hi: 4,
        },
        direct_share: 0.1,
    },
];

/// Minimum sweeps and server passes per run, whatever `--seconds` says.
const MIN_SWEEPS: usize = 3;
const MIN_PASSES: usize = 2;

/// A committed list for a target, one entry per line of
/// `expected/<model>-<lo>-<hi>.<kind>`: `keys` is the canonical-key list
/// of its suite, `observable` the emitted tests the consistency checker
/// finds observable (known exceptions; see `direct::suite_failures`).
fn committed(t: Target, kind: &str) -> &'static [&'static str] {
    static LISTS: std::sync::OnceLock<BTreeMap<&'static str, Vec<&'static str>>> =
        std::sync::OnceLock::new();
    let lists = LISTS.get_or_init(|| {
        [
            ("tso-2-5.keys", include_str!("../expected/tso-2-5.keys")),
            ("tso-2-4.keys", include_str!("../expected/tso-2-4.keys")),
            ("power-2-4.keys", include_str!("../expected/power-2-4.keys")),
            ("scc-2-4.keys", include_str!("../expected/scc-2-4.keys")),
            ("c11-2-3.keys", include_str!("../expected/c11-2-3.keys")),
            ("sc-2-4.keys", include_str!("../expected/sc-2-4.keys")),
            ("armv7-2-3.keys", include_str!("../expected/armv7-2-3.keys")),
            (
                "tso-2-5.observable",
                include_str!("../expected/tso-2-5.observable"),
            ),
            (
                "tso-2-4.observable",
                include_str!("../expected/tso-2-4.observable"),
            ),
            (
                "power-2-4.observable",
                include_str!("../expected/power-2-4.observable"),
            ),
        ]
        .into_iter()
        .map(|(name, text)| (name, text.lines().collect()))
        .collect()
    });
    lists
        .get(format!("{}-{}-{}.{kind}", t.model, t.lo, t.hi).as_str())
        .map_or(&[], Vec::as_slice)
}

fn expected(t: Target) -> &'static [&'static str] {
    committed(t, "keys")
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?} (expected one of {})",
            names.join(", ")
        )
    })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuses a run that a `LITSYNTH_*` variable would make non-hermetic:
/// `LITSYNTH_FAULT_PLAN` arms faults inside `SynthConfig::new`,
/// `LITSYNTH_RESUME` replays a journal instead of solving, and
/// `LITSYNTH_TRACE` adds a stderr write per task and per check.
fn hermetic() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LITSYNTH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Ordered (name, value, unit) metrics of one run.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as a JSON object; a value that could not be measured
    /// (not finite) is `null`, and the run is then reported incorrect.
    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }
}

fn emit_expected(argv: &[String]) -> ExitCode {
    let model = WORKLOADS
        .iter()
        .map(|w| w.direct)
        .chain(serve::SCRIPT)
        .map(|t| t.model)
        .find(|m| argv.first().is_some_and(|a| a == m));
    let bounds: Vec<usize> = argv.iter().skip(1).filter_map(|a| a.parse().ok()).collect();
    let (Some(model), [lo, hi]) = (model, bounds.as_slice()) else {
        eprintln!("usage: --emit-expected <model> <lo> <hi>");
        return ExitCode::from(2);
    };
    let target = Target {
        model,
        lo: *lo,
        hi: *hi,
    };
    let (_, suite, _) = direct::sweep(target);
    for key in suite.keys() {
        println!("{key}");
    }
    for key in direct::observable_keys(target, &suite) {
        eprintln!("observable: {key}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = hermetic() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if argv.first().is_some_and(|a| a == "--emit-expected") {
        return emit_expected(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    run(&args)
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} (direct {} sweeps for {:.0}% of the time, server passes for the rest)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.direct.label(),
        w.direct_share * 100.0
    );
    // Inputs and oracle verdicts come first, outside every timed region.
    let mut inputs = serve::Inputs::generate(args.seed);
    let order: Vec<String> = inputs.script.iter().map(Target::label).collect();
    println!(
        "inputs: {} CHECK cases over {:?}, script order [{}]",
        inputs.cases.len(),
        serve::CHECK_MODELS,
        order.join(", ")
    );
    if args.trace {
        spans::enable();
    }

    // Closed loop, one operation at a time: a sweep whenever the sweeps'
    // share of the elapsed time is below the workload's share, a server
    // pass otherwise, so both kinds of sample span the whole run. Once the
    // minimums are met, an operation starts only if it would reach its
    // midpoint (judged by the last one of its kind) before `--seconds`, so
    // a run neither overshoots nor stops short by more than half an
    // operation.
    let start = Instant::now();
    let mut direct = direct::DirectRun::default();
    let mut served = serve::ServeRun::default();
    let (mut direct_s, mut last_sweep_s, mut last_pass_s) = (0.0, 0.0, 0.0);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let sweeps_short = (direct.attempted as usize) < MIN_SWEEPS;
        let passes_short = served.passes < MIN_PASSES;
        let sweep_next = if elapsed < args.seconds || !(sweeps_short || passes_short) {
            direct_s <= w.direct_share * elapsed
        } else {
            sweeps_short
        };
        let last = if sweep_next { last_sweep_s } else { last_pass_s };
        if !sweeps_short && !passes_short && elapsed + last / 2.0 > args.seconds {
            break;
        }
        let t = Instant::now();
        if sweep_next {
            direct.sweep(
                w.direct,
                expected(w.direct),
                committed(w.direct, "observable"),
                args.trace,
            );
            last_sweep_s = t.elapsed().as_secs_f64();
            direct_s += last_sweep_s;
        } else {
            serve::pass(&mut inputs, expected, &mut served);
            last_pass_s = t.elapsed().as_secs_f64();
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let attempted = direct.attempted + served.attempted;
    let failures: Vec<&String> = direct.failures.iter().chain(&served.failures).collect();
    let failed = failures.len() as u64;
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if served.pin_failures > 0 {
        println!(
            "note: {} request/response phases could not move every thread onto one CPU",
            served.pin_failures
        );
    }

    let mut m = Metrics::default();
    if args.trace {
        per_layer(&mut m, w, &direct, &served, &inputs);
    } else {
        end_to_end(&mut m, &direct, &served);
    }
    println!(
        "measured {measured_s:.1} s: {} sweeps, {} server passes",
        direct.attempted, served.passes
    );
    println!("ops = {attempted} count");
    println!("ops_failed = {failed} count");
    for (name, value, unit) in &m.0 {
        println!("{name} = {value} {unit}");
    }
    let correct = failed == 0 && m.0.iter().all(|(_, v, _)| v.is_finite());
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    write_outputs(args, &result);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(m: &mut Metrics, direct: &direct::DirectRun, served: &serve::ServeRun) {
    let latency = |name: &str, l: &serve::Latency| {
        println!(
            "{name}: pooled {}, interquartile mean {:.4} ms; per-pass p99 {}",
            l.pooled.describe(1e3, "ms"),
            l.pooled.interquartile_mean() * 1e3,
            l.pass_p99.describe(1e3, "ms")
        );
    };
    println!("sweep_s: {}", direct.sweeps.describe(1.0, "s"));
    println!("setup_s: {}", served.setup.describe(1.0, "s"));
    println!("query_cold_s: {}", served.cold_script.describe(1.0, "s"));
    latency("query_warm", &served.warm);
    println!(
        "check_qps: {}",
        served.check_qps.describe(1.0, "verdicts/s")
    );
    latency("check_miss", &served.miss);
    latency("check_hit", &served.hit);
    m.put("setup_s", served.setup.median(), "s");
    m.put("sweep_s", direct.sweeps.median(), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m.put("query_cold_s", served.cold_script.median(), "s");
    for (name, l) in [
        ("query_warm", &served.warm),
        ("check_miss", &served.miss),
        ("check_hit", &served.hit),
    ] {
        m.put(
            format!("{name}_iqm_ms"),
            l.pooled.interquartile_mean() * 1e3,
            "ms",
        );
        println!(
            "{name}_p50_ms = {} ms, {name}_p99_ms = {} ms (not gated)",
            l.pooled.median() * 1e3,
            l.pass_p99.median() * 1e3
        );
    }
    println!(
        "check_qps = {} verdicts/s (not gated)",
        served.check_qps.median()
    );
}

fn per_layer(
    m: &mut Metrics,
    w: &Workload,
    direct: &direct::DirectRun,
    served: &serve::ServeRun,
    inputs: &serve::Inputs,
) {
    let t = w.direct;
    let st = &direct.stats;
    let sweep_s = direct.sweeps.median();

    // core / relalg
    let compile = layers::sweep_compile(t);
    let prefix = layers::prefix_sweeps(t);
    let below_top = prefix.last().map_or(0.0, |&(_, s)| s);
    let below_prev = prefix.iter().rev().nth(1).map_or(0.0, |&(_, s)| s);
    let mut previous = 0.0;
    for &(k, s) in prefix.iter().chain([&(t.hi, sweep_s)]) {
        println!("  core.bound_s.{k} (marginal) = {:.6} s", s - previous);
        previous = s;
    }
    let search_s = sweep_s - compile.encode_s - compile.compile_s;
    let suite_tests = direct.suite.len() as f64;
    m.put("core.encode_s", compile.encode_s, "s");
    m.put("core.bound_s.top", sweep_s - below_top, "s");
    m.put("core.bound_s.top-1", below_top - below_prev, "s");
    m.put("core.bound_s.rest", below_prev, "s");
    m.put("core.search_s", search_s, "s");
    m.put("core.raw_instances", st.raw_instances as f64, "count");
    m.put("core.suite_tests", suite_tests, "count");
    m.put(
        "core.yield",
        suite_tests / st.raw_instances.max(1) as f64,
        "ratio",
    );
    m.put("relalg.compile_s", compile.compile_s, "s");
    m.put("relalg.unit_compile_s", layers::unit_compile_s(t), "s");
    m.put("relalg.cnf_vars", compile.cnf_vars as f64, "count");
    m.put("relalg.cnf_clauses", compile.cnf_clauses as f64, "count");
    m.put("relalg.compilations", st.compilations as f64, "count");
    m.put("relalg.extensions", st.extensions as f64, "count");
    m.put("relalg.reused_clauses", st.reused_clauses as f64, "count");

    // sat / portfolio (SweepStats of the run's first sweep)
    m.put("sat.propagations", st.propagations as f64, "count");
    m.put("sat.decisions", st.decisions as f64, "count");
    m.put(
        "sat.props_per_decision",
        st.propagations as f64 / st.decisions.max(1) as f64,
        "ratio",
    );
    m.put("sat.props_per_s", st.propagations as f64 / search_s, "1/s");
    m.put("sat.domain_decisions", st.domain_decisions as f64, "count");
    m.put("sat.shelved_replayed", st.shelved_replayed as f64, "count");
    m.put("sat.simplify_removed", st.simplify_removed as f64, "count");
    m.put("sat.subsumed", st.subsumed as f64, "count");
    m.put("sat.strengthened", st.strengthened as f64, "count");
    m.put("sat.gc_runs", st.gc_runs as f64, "count");
    m.put(
        "portfolio.vault_published",
        st.vault.published as f64,
        "count",
    );
    m.put(
        "portfolio.vault_imported",
        st.vault.imported as f64,
        "count",
    );
    m.put(
        "portfolio.vault_filtered",
        st.vault.filtered as f64,
        "count",
    );
    m.put("portfolio.exchange_imported", st.exchange.1 as f64, "count");
    m.put("portfolio.retries", st.retries as f64, "count");
    m.put("portfolio.degraded", st.degraded as f64, "count");

    // litmus / models
    let canon_us = layers::canon_us(&direct.suite);
    let (enc_us, dec_us) = layers::wire_us(&inputs.cases);
    m.put("litmus.canon_us", canon_us, "us");
    m.put(
        "litmus.canon_s_est",
        canon_us * st.raw_instances as f64 / 1e6,
        "s",
    );
    m.put("litmus.wire_encode_us", enc_us, "us");
    m.put("litmus.wire_decode_us", dec_us, "us");
    for model in serve::CHECK_MODELS {
        m.put(
            format!("models.check_us.{model}"),
            layers::check_us(&inputs.cases, model),
            "us",
        );
    }

    // serve
    let check_body = inputs
        .cases
        .first()
        .map(|c| c.request.to_body())
        .unwrap_or_default();
    let suite_body = served
        .bodies
        .get("power")
        .map(|b| litsynth_serve::protocol::seal_body(b))
        .unwrap_or_default();
    m.put("serve.ping_rtt_us", layers::ping_rtt_us(), "us");
    m.put(
        "serve.frame_codec_us.check",
        layers::frame_codec_us("CHECK", &check_body),
        "us",
    );
    m.put(
        "serve.frame_codec_us.suite",
        layers::frame_codec_us("SUITE", &suite_body),
        "us",
    );
    for target in serve::SCRIPT {
        let s = served
            .cold_by_model
            .get(target.model)
            .map_or(f64::NAN, |s| s.median());
        m.put(format!("serve.query_cold_s.{}", target.model), s, "s");
    }
    // Tails and throughput of the serving path: printed by the untraced
    // run too, but too noisy on a shared host to gate (see METRICS.md).
    for (name, l) in [
        ("query_warm", &served.warm),
        ("check_miss", &served.miss),
        ("check_hit", &served.hit),
    ] {
        m.put(
            format!("serve.{name}_p99_ms"),
            l.pass_p99.median() * 1e3,
            "ms",
        );
    }
    m.put("serve.check_qps", served.check_qps.median(), "verdicts/s");
    let per_pass = |f: fn(&litsynth_serve::ServerStats) -> u64| {
        served.stats.iter().map(f).sum::<u64>() as f64 / served.stats.len().max(1) as f64
    };
    m.put("serve.cache_hits", per_pass(|s| s.cache.hits), "count");
    m.put("serve.cache_misses", per_pass(|s| s.cache.misses), "count");
    m.put(
        "serve.check_cache_hits",
        per_pass(|s| s.check_cache_hits),
        "count",
    );
    m.put("serve.compilations", per_pass(|s| s.compilations), "count");
    m.put("serve.shard_stolen", per_pass(|s| s.shard.stolen), "count");
    m.put(
        "serve.solver_retries",
        per_pass(|s| s.solver_retries),
        "count",
    );

    // the recorder itself
    let untraced = direct.untraced.median();
    m.put(
        "bench.trace_overhead_pct",
        100.0 * (sweep_s - untraced) / untraced,
        "%",
    );
    for (layer, s) in spans::self_time_by_layer() {
        println!("  self time {layer}: {s:.6} s");
    }
    println!(
        "  not measured from outside: sat propagate/analyze/reduce split and portfolio \
         pool/vault wait time (no public entry point below the sweep call; core.search_s bounds them)"
    );
}

/// Writes the result (with its seed) and, when tracing, the spans under
/// `perfbench/out/`. A write failure is reported, not fatal.
fn write_outputs(args: &Args, result: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {result}}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|()| spans::finish(&dir.join(format!("{stem}.spans.jsonl"))));
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write results under {}: {e}",
            dir.display()
        );
    }
}
