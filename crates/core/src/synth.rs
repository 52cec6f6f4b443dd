//! The synthesis loop (paper §5): enumerate every instance of the
//! minimality criterion, canonicalize, and deduplicate — in parallel.
//!
//! # The parallel engine
//!
//! Every (axiom, bound) query is an independent SAT enumeration, so the
//! drivers fan queries out across a scoped-thread worker pool
//! ([`SynthConfig::threads`], all cores by default) that claims the
//! heaviest queries, the highest bound's, first. On top of that, one
//! query can be *cube-split* ([`SynthConfig::cube_bits`]): `b` instruction-kind
//! selector bits are pinned to each of the `2^b` boolean patterns as extra
//! assumptions, partitioning the observable space into disjoint subqueries
//! that enumerate concurrently and merge through the canonical-key dedup.
//!
//! Since the portfolio subsystem (`litsynth-portfolio`), a query's cube
//! workers cooperate instead of running blind:
//!
//! * the circuit is Tseitin-compiled **once** per query into a shared
//!   clause arena (whichever worker arrives first pays, through a
//!   `OnceLock`); every worker attaches a private solver to it and
//!   asserts the query's minimality constraints there as level-0 facts,
//!   leaving only the cube pins as assumptions,
//! * workers trade learnt clauses over a bounded **exchange bus**
//!   ([`SynthConfig::exchange`]), which prunes search but provably never
//!   changes the enumerated class set, and
//! * the pinned bits are chosen **adaptively** from a probing run's VSIDS
//!   activity ([`SynthConfig::adaptive_cubes`]) rather than slot order.
//!
//! Every (axiom, bound) query is solved the same way whichever entry point
//! runs it — [`synthesize_axiom`], [`synthesize_union`], a direct
//! [`synthesize_union_up_to_with_stats`] sweep, or a served unit
//! ([`run_unit`]): its own compilation, a fresh solver per task attempt,
//! and nothing shared with other queries. That is the paper's scheme
//! (§5.2: per-axiom queries, merged at the end), and it is what makes a
//! direct sweep and a sharded one do identical solver work. Whether the
//! solver branches on the query's roots first is a property of the model
//! ([`MemoryModel::roots_first`]); see DESIGN.md §3a for the measurements
//! behind both choices.
//!
//! Results are deterministic by construction — byte-identical across any
//! `threads`/`cube_bits`/`exchange` choice:
//!
//! * tasks are merged in a fixed (bound, axiom, cube) order, never in
//!   completion order,
//! * the representative stored for a canonical key is a pure function of
//!   the key (the exact canonicalizer's normal form; for the hash-based
//!   ablation canonicalizer, the lexicographically least serialization),
//!   not whichever isomorphic variant a worker happened to enumerate
//!   first,
//! * cube pins are a pure function of the compiled query (the probe is
//!   deterministic), so the partition never depends on thread timing, and
//! * imported clauses are implied for every model a worker has yet to
//!   enumerate (see `litsynth_portfolio::exchange`), so exchange traffic
//!   affects solver effort only, never the per-cube class sets.

use crate::journal::{config_fingerprint, query_key};
use crate::perturb::minimality_asserts_opts;
use crate::symbolic::{vocabulary, SymbolicTest, SynthConfig};
use litsynth_litmus::{canonical_key_hash, serialize, LitmusTest, Outcome, TwoTierCanon};
use litsynth_models::{MemoryModel, SymAlg};
use litsynth_portfolio::{
    resolve_threads, run_resilient, Attempt, CompiledQuery, CubeConfig, ExchangeBus,
    ExchangeConfig, RetryConfig,
};
use litsynth_relalg::Bit;
use litsynth_sat::{FaultCtx, Interrupt, SolveBudget};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A deduplicated suite: canonical key → (test, outcome).
pub type CanonicalSuite = BTreeMap<String, (LitmusTest, Outcome)>;

/// Statistics for one enumeration worker — one (axiom, bound, cube) task.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// The axiom this worker enumerated.
    pub axiom: &'static str,
    /// The event bound of the query.
    pub bound: usize,
    /// Which cube of `num_cubes` this worker owned (0 when unsplit).
    pub cube: usize,
    /// Total cubes the query was split into (1 when unsplit).
    pub num_cubes: usize,
    /// Raw solver instances this worker enumerated.
    pub raw_instances: usize,
    /// CNF variables in this worker's solver.
    pub cnf_vars: usize,
    /// CNF clauses in this worker's solver.
    pub cnf_clauses: usize,
    /// Wall-clock time this worker spent.
    pub elapsed: Duration,
    /// Unit propagations this worker's solver performed.
    pub propagations: u64,
    /// Decisions this worker's solver made.
    pub decisions: u64,
    /// Decisions served from the query's roots first (0 unless the model
    /// branches roots-first, [`MemoryModel::roots_first`]).
    pub domain_decisions: u64,
    /// Clauses purged by level-0 inprocessing as satisfied (0 unless
    /// [`SynthConfig::inprocess`] is on).
    pub simplify_removed: u64,
    /// Learnt clauses deleted by on-the-fly subsumption.
    pub subsumed: u64,
    /// Literals removed by false-literal stripping and self-subsuming
    /// resolution.
    pub strengthened: u64,
    /// Arena garbage collections this worker's solver ran.
    pub gc_runs: u64,
    /// Arena words reclaimed by those collections.
    pub gc_reclaimed_words: u64,
    /// Live learnt clauses per retention tier (core/mid/local) when the
    /// task finished.
    pub learnt_tiers: [u64; 3],
    /// `true` if the instance cap or time budget stopped this worker.
    pub truncated: bool,
    /// Learnt clauses this worker published on the exchange bus.
    pub exported: u64,
    /// Peer clauses this worker imported from the bus.
    pub imported: u64,
    /// Clauses the bus filter (LBD/size/pool cap) dropped for this worker.
    pub filtered: u64,
    /// Wall-clock time of the query's cube-selection probe (a per-query
    /// cost, reported on every worker of the query).
    pub probe: Duration,
    /// Attempts this worker made (1 = first try completed; >1 means
    /// panicked or interrupted attempts were retried).
    pub attempts: usize,
    /// `true` when no attempt completed: the worker's tests are a partial
    /// (possibly empty) under-approximation of its cube.
    pub degraded: bool,
    /// One reason per failed attempt (panic message or interrupt cause).
    pub failures: Vec<String>,
}

/// The result of one synthesis query (one model, one axiom, one bound),
/// possibly aggregated over several cube workers.
#[derive(Debug)]
pub struct SynthResult {
    /// Canonical tests, keyed by canonical form.
    pub tests: BTreeMap<String, (LitmusTest, Outcome)>,
    /// Raw solver instances enumerated (before canonicalization), summed
    /// over workers.
    pub raw_instances: usize,
    /// Wall-clock time of the query itself: from its first worker's start
    /// to its last worker's end (not the sum of workers, and not the time
    /// other queries of a sweep spent).
    pub elapsed: Duration,
    /// `true` if the instance cap or time budget stopped any worker early.
    pub truncated: bool,
    /// CNF variables, summed over workers.
    pub cnf_vars: usize,
    /// CNF clause count, summed over workers.
    pub cnf_clauses: usize,
    /// Circuit→CNF compilations performed (exactly one per query on the
    /// portfolio path, however many cube workers attach).
    pub compilations: usize,
    /// Exchange-bus totals over all workers: (exported, imported,
    /// filtered).
    pub exchange: (u64, u64, u64),
    /// Unit propagations, summed over workers.
    pub propagations: u64,
    /// Solver decisions, summed over workers.
    pub decisions: u64,
    /// Roots-first decisions, summed over workers.
    pub domain_decisions: u64,
    /// Inprocessing-purged clauses, summed over workers.
    pub simplify_removed: u64,
    /// Subsumed learnt clauses, summed over workers.
    pub subsumed: u64,
    /// Stripped/strengthened literals, summed over workers.
    pub strengthened: u64,
    /// Arena garbage collections, summed over workers.
    pub gc_runs: u64,
    /// Arena words reclaimed, summed over workers.
    pub gc_reclaimed_words: u64,
    /// Total cube-selection probe time, summed over queries.
    pub probe: Duration,
    /// Workers whose every attempt failed: the suite is complete iff this
    /// is 0 (and `truncated` is false). Degraded queries are never
    /// journaled.
    pub degraded: usize,
    /// Retry attempts beyond each worker's first, summed over workers.
    /// Non-zero retries with zero `degraded` means every fault was
    /// recovered — the suite is still exact.
    pub retries: u64,
    /// `true` when this result was replayed from the checkpoint journal
    /// instead of being re-enumerated (zero solver work was done).
    pub from_journal: bool,
    /// Per-worker solver statistics, in cube order.
    pub workers: Vec<WorkerStats>,
}

impl SynthResult {
    /// Number of distinct canonical tests found.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// `true` if no tests were found.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// The tests, in canonical-key order.
    pub fn into_tests(self) -> Vec<(LitmusTest, Outcome)> {
        self.tests.into_values().collect()
    }

    /// A result that merely *carries* `tests` with every work counter
    /// zero — the shape of a journal replay or of a remotely computed unit
    /// folded in by a coordinator (the solver work happened elsewhere).
    pub fn carrying(tests: CanonicalSuite) -> SynthResult {
        SynthResult {
            tests,
            raw_instances: 0,
            elapsed: Duration::ZERO,
            truncated: false,
            cnf_vars: 0,
            cnf_clauses: 0,
            compilations: 0,
            exchange: (0, 0, 0),
            propagations: 0,
            decisions: 0,
            domain_decisions: 0,
            simplify_removed: 0,
            subsumed: 0,
            strengthened: 0,
            gc_runs: 0,
            gc_reclaimed_words: 0,
            probe: Duration::ZERO,
            degraded: 0,
            retries: 0,
            from_journal: false,
            workers: Vec::new(),
        }
    }
}

/// Inserts with the deterministic representative rule: the value kept for
/// a key never depends on enumeration order (see the module docs).
fn insert_dedup(suite: &mut CanonicalSuite, key: String, test: LitmusTest, outcome: Outcome) {
    match suite.entry(key) {
        Entry::Vacant(v) => {
            v.insert((test, outcome));
        }
        Entry::Occupied(mut o) => {
            let (t0, o0) = o.get();
            if serialize(&test, &outcome) < serialize(t0, o0) {
                o.insert((test, outcome));
            }
        }
    }
}

/// Process-wide count of queries the adaptive engagement heuristic
/// downgraded to the unsplit path ([`SynthConfig::adaptive_engage`]).
static ENGAGE_DOWNGRADES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many queries the adaptive engagement heuristic has downgraded to
/// the unsplit path so far, process-wide. The counter that
/// proves which path a small-bound query actually ran.
pub fn engage_downgrades() -> u64 {
    ENGAGE_DOWNGRADES.load(Ordering::Relaxed)
}

/// `cube_bits` clamped to the number of pinnable selector bits the query
/// actually has. The pin *candidates* are the instruction-kind selector
/// bits — distinct circuit inputs, and observables, so pinning them
/// partitions the observable space (every blocked class determines the
/// pinned bits' values and falls in exactly one cube).
///
/// With [`SynthConfig::adaptive_engage`] on, a query below the engagement
/// threshold downgrades to 0 — unsplit, no exchange bus, no probe: the
/// portfolio machinery's overhead loses at small bounds (0.58× measured,
/// see ROADMAP), and cube splitting is byte-identity-preserving, so the
/// downgrade changes wall-clock only.
fn effective_cube_bits<M: MemoryModel>(model: &M, cfg: &SynthConfig) -> usize {
    if cfg.cube_bits > 0 && cfg.adaptive_engage && cfg.events < cfg.engage_below {
        ENGAGE_DOWNGRADES.fetch_add(1, Ordering::Relaxed);
        return 0;
    }
    cfg.cube_bits.min(vocabulary(model).len() * cfg.events)
}

/// Reports one completed query to `cfg`'s progress sink, if any.
fn emit_progress(model_name: &str, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    if let Some(sink) = &cfg.progress {
        sink.emit(&crate::symbolic::ProgressEvent {
            key: query_key(model_name, axiom, cfg.events),
            tests: r.tests.len(),
            from_journal: r.from_journal,
            elapsed: r.elapsed,
        });
    }
}

/// One (axiom, bound) query, compiled once and shared by its cube workers.
struct Query {
    st: SymbolicTest,
    /// The compilation, with the minimality asserts as its attach facts.
    query: CompiledQuery,
    /// Full circuit→CNF compilations charged to this query: always 1,
    /// measured with the thread-local counter (the whole build runs on one
    /// thread, so sibling queries compiling concurrently cannot inflate
    /// it).
    compilations: usize,
}

/// The pin-selection config for one query. A query that will never be
/// cube-split (`cube_bits == 0`) skips the adaptive probing run outright —
/// its pins are unused, so the probe would be pure overhead.
fn cube_config(cfg: &SynthConfig) -> CubeConfig {
    CubeConfig {
        adaptive: cfg.adaptive_cubes && cfg.cube_bits > 0,
        probe_conflicts: cfg.probe_conflicts,
    }
}

/// Builds (symbolic test + minimality asserts + shared compilation + cube
/// pins) for one query. Runs inside a `OnceLock`, so exactly one worker
/// per query pays this cost; the result is a pure function of
/// (model, cfg, axiom) regardless of which worker that is.
fn build_query<M: MemoryModel>(model: &M, cfg: &SynthConfig, axiom: &'static str) -> Query {
    let before = litsynth_relalg::thread_compilations();
    let mut alg = SymAlg::new();
    let st = SymbolicTest::build(&mut alg, model, cfg);
    let asserts = minimality_asserts_opts(&mut alg, model, &st, axiom, cfg.orphan_unconstrained);
    let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
    let circuit = alg.into_circuit();
    let query = CompiledQuery::build(
        circuit,
        &asserts,
        &st.observables,
        &candidates,
        &cube_config(cfg),
    );
    let compilations = (litsynth_relalg::thread_compilations() - before) as usize;
    Query {
        st,
        query,
        compilations,
    }
}

/// One enumeration task: an (axiom, bound, cube) triple plus the shared
/// per-query state (compilation slot and exchange bus) it cooperates
/// through.
struct Task {
    axiom_idx: usize,
    axiom: &'static str,
    /// Journal/fault-plan key of the owning query, e.g. `tso/sc_per_loc/2`.
    query_key: Arc<str>,
    cfg: SynthConfig,
    cube: usize,
    cube_bits: usize,
    shared: Arc<OnceLock<Query>>,
    bus: Arc<ExchangeBus>,
}

/// The shared state for one query's worker group.
fn query_group(cfg: &SynthConfig, cube_bits: usize) -> (Arc<OnceLock<Query>>, Arc<ExchangeBus>) {
    let bus = ExchangeBus::new(ExchangeConfig {
        // With a single cube there are no peers to trade with.
        enabled: cfg.exchange && cube_bits > 0,
        max_lbd: cfg.exchange_max_lbd,
        max_len: cfg.exchange_max_len,
        ..ExchangeConfig::default()
    });
    (Arc::new(OnceLock::new()), bus)
}

/// The output of one worker.
struct CubeRun {
    tests: CanonicalSuite,
    stats: WorkerStats,
    /// When the attempt that produced this run started and finished
    /// (`None` for a placeholder: no attempt produced anything).
    window: Option<(Instant, Instant)>,
    /// Compilations charged to this worker (the query's one compilation is
    /// charged to cube 0).
    compilations: usize,
    /// Probe time charged to this worker (cube 0 only, like above).
    probe: Duration,
}

/// The per-solve budget for `attempt` of a task. Budgets escalate ×4 per
/// retry so a deterministic budget exhaustion is not retried into the
/// identical wall; unset knobs (0) stay unlimited.
fn attempt_budget(task: &Task, attempt: usize, start: Instant) -> SolveBudget {
    let cfg = &task.cfg;
    let scale = 1u64 << (2 * attempt.min(16) as u32);
    SolveBudget {
        max_conflicts: cfg.solve_conflicts.saturating_mul(scale),
        max_propagations: cfg.solve_propagations.saturating_mul(scale),
        deadline: (cfg.solve_wall_ms > 0)
            .then(|| start + Duration::from_millis(cfg.solve_wall_ms.saturating_mul(scale))),
        cancel: None,
        fault: cfg.fault_plan.clone().map(|plan| FaultCtx {
            plan,
            query: task.query_key.clone(),
            cube: task.cube,
            attempt,
        }),
    }
}

/// Enumerates one cube of one (axiom, bound) query on the current thread.
///
/// The first worker of a query to arrive compiles it (once) into the
/// shared `OnceLock`; every attempt then loads a fresh private solver
/// with a copy of its clauses and trades learnt clauses over the query's
/// exchange bus. A retried attempt therefore re-enumerates its whole cube
/// again, deterministically. On the final attempt exchange imports
/// are disabled for maximal independence from peer timing (exports still
/// flow; see `litsynth_portfolio::exchange` for why imports can't change
/// the enumerated set either way).
fn enumerate_cube<M: MemoryModel>(model: &M, task: &Task, attempt: usize) -> Attempt<CubeRun> {
    let cfg = &task.cfg;
    let start = Instant::now();
    let query = task
        .shared
        .get_or_init(|| build_query(model, cfg, task.axiom));
    let st = &query.st;
    let circuit = query.query.circuit();
    // The minimality asserts are level-0 facts of the attached finder;
    // only the cube pins are assumptions.
    let pins = query.query.cube_pins(task.cube, task.cube_bits);
    let mut finder = query.query.attach();
    // Attaching propagates the arena's unit clauses and the facts; that
    // work belongs to the query, so the task's propagation count starts
    // after it.
    let attach_props = finder.solver_stats().propagations;
    finder.set_inprocessing(cfg.inprocess);
    finder.set_tiered_retention(cfg.tiered);
    let root_bits: Vec<Bit> = query
        .query
        .asserts()
        .iter()
        .chain(&pins)
        .chain(&st.observables)
        .chain(st.kind.iter().flatten())
        .copied()
        .collect();
    // Seed branching with the query's cone, and — for models that branch
    // roots-first — decide the roots before the global VSIDS order.
    finder.set_domain_enabled(model.roots_first());
    finder.warm(circuit, root_bits.iter().copied());
    finder.declare_roots(circuit, &root_bits);
    let max_attempts = cfg.max_attempts.max(1);
    let mut exchange = task.bus.endpoint(task.cube);
    if max_attempts > 1 && attempt + 1 >= max_attempts {
        exchange.disable_imports();
    }
    let budget = attempt_budget(task, attempt, start);

    let mut tests = BTreeMap::new();
    // Exact canonicalization runs through the two-tier cache: the
    // permutation search happens once per distinct hash class this worker
    // sees, repeat members cost one hash key. Per-worker state, so output
    // stays a pure function of the enumerated set.
    let mut canon = TwoTierCanon::new();
    let mut raw = 0usize;
    let mut truncated = false;
    let mut interrupted: Option<Interrupt> = None;
    loop {
        match finder.next_instance_budgeted(circuit, &pins, &mut exchange, &budget) {
            Ok(Some(inst)) => {
                raw += 1;
                let (test, outcome) = st.extract(circuit, &inst);
                if cfg.exact_canon {
                    let (key, ct, co) = canon.canonicalize(&test, &outcome);
                    insert_dedup(&mut tests, key, ct, co);
                } else {
                    insert_dedup(
                        &mut tests,
                        canonical_key_hash(&test, &outcome),
                        test,
                        outcome,
                    );
                }
                finder.block(circuit, &inst, &st.observables);
                if raw >= cfg.max_instances {
                    truncated = true;
                    break;
                }
                if cfg.time_budget_ms > 0 && start.elapsed().as_millis() as u64 > cfg.time_budget_ms
                {
                    truncated = true;
                    break;
                }
            }
            Ok(None) => break,
            Err(i) => {
                interrupted = Some(i);
                break;
            }
        }
    }
    let xs = exchange.stats();
    let (cnf_vars, cnf_clauses) = (finder.num_cnf_vars(), finder.num_cnf_clauses());
    let ss = finder.solver_stats();
    let propagations = ss.propagations - attach_props;
    if std::env::var_os("LITSYNTH_TRACE").is_some() {
        eprintln!(
            "trace {} cube {} attempt {}: wall {:?} probe {:?} raw {} conflicts {} learnt-lits {} props {} decs {} domdecs {} simp {} subs {} str {} gc {}/{}w tiers {}/{}/{}",
            task.query_key,
            task.cube,
            attempt,
            start.elapsed(),
            query.query.probe_time(),
            raw,
            ss.conflicts,
            ss.learnt_literals,
            propagations,
            ss.decisions,
            ss.domain_decisions,
            ss.simplify_removed,
            ss.subsumed,
            ss.strengthened,
            ss.gc_runs,
            ss.gc_reclaimed_words,
            ss.learnts_core,
            ss.learnts_mid,
            ss.learnts_local,
        );
    }
    let run = CubeRun {
        tests,
        // The query-level costs (the one compilation, the probe) are
        // attributed to cube 0 so that summing workers counts each query
        // exactly once.
        compilations: if task.cube == 0 {
            query.compilations
        } else {
            0
        },
        probe: if task.cube == 0 {
            query.query.probe_time()
        } else {
            Duration::ZERO
        },
        stats: WorkerStats {
            axiom: task.axiom,
            bound: cfg.events,
            cube: task.cube,
            num_cubes: 1 << task.cube_bits,
            raw_instances: raw,
            cnf_vars,
            cnf_clauses,
            elapsed: start.elapsed(),
            propagations,
            decisions: ss.decisions,
            domain_decisions: ss.domain_decisions,
            simplify_removed: ss.simplify_removed,
            subsumed: ss.subsumed,
            strengthened: ss.strengthened,
            gc_runs: ss.gc_runs,
            gc_reclaimed_words: ss.gc_reclaimed_words,
            learnt_tiers: [ss.learnts_core, ss.learnts_mid, ss.learnts_local],
            truncated,
            exported: xs.exported,
            imported: xs.imported,
            filtered: xs.filtered,
            probe: query.query.probe_time(),
            attempts: 1,
            degraded: false,
            failures: Vec::new(),
        },
        window: Some((start, Instant::now())),
    };
    match interrupted {
        None => Attempt::Done(run),
        Some(i) => Attempt::Interrupted {
            reason: format!(
                "{} cube {} attempt {}: {}",
                task.query_key, task.cube, attempt, i
            ),
            partial: Some(run),
            // A cancelled query was asked to stop: don't fight the caller.
            retry: i != Interrupt::Cancelled,
        },
    }
}

/// A stand-in for a worker whose every attempt panicked before producing
/// even a partial run: an empty (degraded) cube.
fn placeholder_run(task: &Task) -> CubeRun {
    CubeRun {
        tests: BTreeMap::new(),
        compilations: 0,
        probe: Duration::ZERO,
        window: None,
        stats: WorkerStats {
            axiom: task.axiom,
            bound: task.cfg.events,
            cube: task.cube,
            num_cubes: 1 << task.cube_bits,
            raw_instances: 0,
            cnf_vars: 0,
            cnf_clauses: 0,
            elapsed: Duration::ZERO,
            propagations: 0,
            decisions: 0,
            domain_decisions: 0,
            simplify_removed: 0,
            subsumed: 0,
            strengthened: 0,
            gc_runs: 0,
            gc_reclaimed_words: 0,
            learnt_tiers: [0; 3],
            truncated: false,
            exported: 0,
            imported: 0,
            filtered: 0,
            probe: Duration::ZERO,
            attempts: 0,
            degraded: true,
            failures: Vec::new(),
        },
    }
}

/// Runs the tasks on the portfolio's resilient worker pool and returns
/// their outputs in task order (never completion order). Each task runs
/// under panic isolation with retry/backoff; a task whose every attempt
/// fails comes back with `stats.degraded` set (carrying its best partial
/// result) instead of poisoning the pool.
fn run_tasks<M: MemoryModel + Sync>(model: &M, tasks: &[Task], threads: usize) -> Vec<CubeRun> {
    let retry = tasks
        .first()
        .map(|t| RetryConfig {
            max_attempts: t.cfg.max_attempts.max(1),
            backoff_base_ms: t.cfg.retry_backoff_ms,
        })
        .unwrap_or_default();
    run_resilient(tasks, threads, &retry, |_, t, attempt| {
        enumerate_cube(model, t, attempt)
    })
    .into_iter()
    .zip(tasks)
    .map(|(report, task)| {
        let mut run = report.result.unwrap_or_else(|| placeholder_run(task));
        run.stats.attempts = report.attempts;
        run.stats.degraded = report.degraded;
        run.stats.failures = report.failures;
        run
    })
    .collect()
}

/// Merges the cube runs of one query (in cube order) into a [`SynthResult`]
/// whose `elapsed` spans the query's own attempts.
fn merge_query(runs: Vec<CubeRun>) -> SynthResult {
    let windows = runs.iter().filter_map(|r| r.window);
    let first = windows.clone().map(|(s, _)| s).min();
    let last = windows.map(|(_, e)| e).max();
    let elapsed = first
        .zip(last)
        .map_or(Duration::ZERO, |(s, e)| e.duration_since(s));
    let mut tests = BTreeMap::new();
    let mut raw = 0;
    let mut vars = 0;
    let mut clauses = 0;
    let mut compilations = 0;
    let mut exchange = (0u64, 0u64, 0u64);
    let mut propagations = 0u64;
    let mut decisions = 0u64;
    let mut domain_decisions = 0u64;
    let mut simplify_removed = 0u64;
    let mut subsumed = 0u64;
    let mut strengthened = 0u64;
    let mut gc_runs = 0u64;
    let mut gc_reclaimed_words = 0u64;
    let mut probe = Duration::ZERO;
    let mut truncated = false;
    let mut degraded = 0usize;
    let mut retries = 0u64;
    let mut workers = Vec::with_capacity(runs.len());
    for run in runs {
        for (k, (t, o)) in run.tests {
            insert_dedup(&mut tests, k, t, o);
        }
        raw += run.stats.raw_instances;
        vars += run.stats.cnf_vars;
        clauses += run.stats.cnf_clauses;
        compilations += run.compilations;
        exchange.0 += run.stats.exported;
        exchange.1 += run.stats.imported;
        exchange.2 += run.stats.filtered;
        propagations += run.stats.propagations;
        decisions += run.stats.decisions;
        domain_decisions += run.stats.domain_decisions;
        simplify_removed += run.stats.simplify_removed;
        subsumed += run.stats.subsumed;
        strengthened += run.stats.strengthened;
        gc_runs += run.stats.gc_runs;
        gc_reclaimed_words += run.stats.gc_reclaimed_words;
        probe += run.probe;
        truncated |= run.stats.truncated;
        degraded += run.stats.degraded as usize;
        retries += run.stats.attempts.saturating_sub(1) as u64;
        workers.push(run.stats);
    }
    SynthResult {
        tests,
        raw_instances: raw,
        elapsed,
        truncated,
        cnf_vars: vars,
        cnf_clauses: clauses,
        compilations,
        exchange,
        propagations,
        decisions,
        domain_decisions,
        simplify_removed,
        subsumed,
        strengthened,
        gc_runs,
        gc_reclaimed_words,
        probe,
        degraded,
        retries,
        from_journal: false,
        workers,
    }
}

/// A [`SynthResult`] replayed from the checkpoint journal: the exact tests
/// recorded by a previous complete run, with all work counters zero.
fn journal_hit_result(tests: CanonicalSuite, elapsed: Duration) -> SynthResult {
    let mut r = SynthResult::carrying(tests);
    r.elapsed = elapsed;
    r.from_journal = true;
    r
}

/// Post-synthesis consistency cross-check ([`SynthConfig::cross_check`]):
/// re-verifies with the polynomial saturation checker
/// (`litsynth_models::check`) that every emitted (test, outcome) really is
/// forbidden — an axiom-forbidden outcome is model-forbidden (more axioms
/// only shrink the allowed set), so the full-model check is sound for
/// per-axiom suites. Read-only defense in depth for the byte-identity
/// bar: it never mutates the suite, and a disagreement is a synthesis or
/// model bug, so it panics.
fn cross_check_suite<M: MemoryModel>(model: &M, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    if !cfg.cross_check {
        return;
    }
    for (key, (test, outcome)) in &r.tests {
        assert!(
            litsynth_models::check::forbidden(model, test, outcome),
            "cross-check failed: {key} (model {}, axiom {axiom}) claims a forbidden \
             outcome the consistency checker finds observable",
            model.name(),
        );
    }
}

/// Journals `r` if it is complete: not truncated, no degraded workers, and
/// a journal is configured. Partial suites are deliberately never
/// recorded — a resume must only ever skip work whose output is exact.
fn record_if_clean(model_name: &str, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    let Some(journal) = &cfg.journal else {
        return;
    };
    if r.truncated || r.degraded > 0 || r.from_journal {
        return;
    }
    let key = query_key(model_name, axiom, cfg.events);
    if let Err(e) = journal.record(&key, config_fingerprint(model_name, axiom, cfg), &r.tests) {
        eprintln!("warning: could not journal {key}: {e}");
    }
}

/// Looks `(axiom, bound)` up in `cfg`'s journal (if any): `Some(tests)`
/// only when a complete prior run with the same config fingerprint was
/// recorded and its entry passes the checksum.
fn journal_lookup<M: MemoryModel>(
    model: &M,
    axiom: &str,
    cfg: &SynthConfig,
) -> Option<CanonicalSuite> {
    let journal = cfg.journal.as_ref()?;
    journal.lookup(
        &query_key(model.name(), axiom, cfg.events),
        config_fingerprint(model.name(), axiom, cfg),
    )
}

/// The static name of `axiom` in `model`'s axiom list.
///
/// # Panics
///
/// Panics if `axiom` is not one of the model's axioms.
fn static_axiom<M: MemoryModel>(model: &M, axiom: &str) -> &'static str {
    model
        .axioms()
        .iter()
        .copied()
        .find(|a| *a == axiom)
        .unwrap_or_else(|| panic!("unknown axiom {axiom:?} for {}", model.name()))
}

/// The (axiom × cube) task list for one bound, checking each axiom's
/// query against the journal first. Journal hits come back as ready-made
/// results keyed by axiom index; only the misses become tasks.
///
/// The lookups happen *here*, before any worker runs — never re-done at
/// merge time, when entries recorded mid-run could change the answer.
fn plan_with_journal<M: MemoryModel>(
    model: &M,
    cfg: &SynthConfig,
) -> (BTreeMap<usize, SynthResult>, Vec<Task>) {
    let cube_bits = effective_cube_bits(model, cfg);
    let mut hits = BTreeMap::new();
    let mut tasks = Vec::new();
    for (axiom_idx, &axiom) in model.axioms().iter().enumerate() {
        if let Some(tests) = journal_lookup(model, axiom, cfg) {
            hits.insert(axiom_idx, journal_hit_result(tests, Duration::ZERO));
            continue;
        }
        let query_key: Arc<str> = query_key(model.name(), axiom, cfg.events).into();
        let (shared, bus) = query_group(cfg, cube_bits);
        for cube in 0..(1usize << cube_bits) {
            tasks.push(Task {
                axiom_idx,
                axiom,
                query_key: query_key.clone(),
                cfg: cfg.clone(),
                cube,
                cube_bits,
                shared: shared.clone(),
                bus: bus.clone(),
            });
        }
    }
    (hits, tasks)
}

/// The read-only epilogue every completed query runs, in merge order:
/// cross-check, journal, report progress.
fn finish_query<M: MemoryModel>(model: &M, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    cross_check_suite(model, axiom, cfg, r);
    record_if_clean(model.name(), axiom, cfg, r);
    emit_progress(model.name(), axiom, cfg, r);
}

/// Synthesizes the suite for one axiom of `model` at the bound in `cfg`:
/// all canonical tests of exactly `cfg.events` instructions satisfying the
/// minimality criterion (Figure 5c encoding). With `cfg.cube_bits > 0` the
/// query is cube-split and the cubes run on `cfg.threads` workers.
pub fn synthesize_axiom<M: MemoryModel + Sync>(
    model: &M,
    axiom: &str,
    cfg: &SynthConfig,
) -> SynthResult {
    let start = Instant::now();
    let axiom = static_axiom(model, axiom);
    if let Some(tests) = journal_lookup(model, axiom, cfg) {
        let r = journal_hit_result(tests, start.elapsed());
        cross_check_suite(model, axiom, cfg, &r);
        emit_progress(model.name(), axiom, cfg, &r);
        return r;
    }
    let cube_bits = effective_cube_bits(model, cfg);
    let query_key: Arc<str> = query_key(model.name(), axiom, cfg.events).into();
    let (shared, bus) = query_group(cfg, cube_bits);
    let tasks: Vec<Task> = (0..(1usize << cube_bits))
        .map(|cube| Task {
            axiom_idx: 0,
            axiom,
            query_key: query_key.clone(),
            cfg: cfg.clone(),
            cube,
            cube_bits,
            shared: shared.clone(),
            bus: bus.clone(),
        })
        .collect();
    let r = merge_query(run_tasks(model, &tasks, cfg.threads));
    finish_query(model, axiom, cfg, &r);
    r
}

/// Synthesizes the per-axiom suites *and* their union for a model at one
/// bound. As the paper notes (§5.2), generating per-axiom suites and
/// merging at the end is much faster than a single union query — and the
/// per-axiom queries are fully independent, so they fan out across the
/// worker pool.
pub fn synthesize_union<M: MemoryModel + Sync>(
    model: &M,
    cfg: &SynthConfig,
) -> (BTreeMap<&'static str, SynthResult>, CanonicalSuite) {
    let (union, _, mut per_bound) = sweep(model, vec![cfg.clone()]);
    (per_bound.pop().unwrap_or_default(), union)
}

/// Groups task outputs by axiom (in axiom order), splices in the journal
/// hits, and builds the union. The union is assembled in axiom order
/// regardless of which axioms were replayed, so a resumed run merges
/// byte-identically to an uninterrupted one.
fn merge_union<M: MemoryModel>(
    model: &M,
    tasks: Vec<Task>,
    runs: Vec<CubeRun>,
    mut hits: BTreeMap<usize, SynthResult>,
) -> (BTreeMap<&'static str, SynthResult>, CanonicalSuite) {
    let mut grouped: Vec<Vec<CubeRun>> = model.axioms().iter().map(|_| Vec::new()).collect();
    for (task, run) in tasks.iter().zip(runs) {
        grouped[task.axiom_idx].push(run);
    }
    let mut per_axiom = BTreeMap::new();
    let mut union: CanonicalSuite = BTreeMap::new();
    for (idx, (&ax, runs)) in model.axioms().iter().zip(grouped).enumerate() {
        let r = hits.remove(&idx).unwrap_or_else(|| merge_query(runs));
        for (k, v) in &r.tests {
            union.entry(k.clone()).or_insert_with(|| v.clone());
        }
        per_axiom.insert(ax, r);
    }
    (per_axiom, union)
}

/// Counters of the cross-query clause vault earlier versions shared
/// learnt clauses through. Every query now solves on its own, so these
/// always read 0; the type is kept for readers of [`SweepStats::vault`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VaultStats {
    /// Clauses published to the vault (always 0).
    pub published: u64,
    /// Clauses imported from the vault (always 0).
    pub imported: u64,
    /// Clauses the vault filtered (always 0).
    pub filtered: u64,
}

/// Aggregate statistics for one sweep of
/// [`synthesize_union_up_to_with_stats`]: the sums of its queries'
/// [`SynthResult`] counters.
///
/// `extensions`, `reused_clauses`, `vault` and `shelved_replayed` belong to
/// the sweep-wide layer chain, clause vault and import shelf that earlier
/// versions ran; each query now compiles and solves on its own, so they
/// always read 0. They are kept for existing readers of these fields.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Full circuit→CNF compilations: one per solved query (journal hits
    /// charge 0).
    pub compilations: u64,
    /// Always 0 (see the type docs).
    pub extensions: u64,
    /// Always 0 (see the type docs).
    pub reused_clauses: u64,
    /// Always 0 (see the type docs).
    pub vault: VaultStats,
    /// Raw solver instances enumerated, summed over the sweep's queries.
    pub raw_instances: u64,
    /// Retry attempts beyond each worker's first, summed over the sweep.
    pub retries: u64,
    /// Workers whose every attempt failed, summed over the sweep.
    pub degraded: u64,
    /// Exchange-bus totals over all workers: (exported, imported,
    /// filtered).
    pub exchange: (u64, u64, u64),
    /// Unit propagations, summed over the sweep's workers.
    pub propagations: u64,
    /// Solver decisions, summed over the sweep's workers.
    pub decisions: u64,
    /// Roots-first decisions, summed over the sweep's workers (0 unless
    /// the model branches roots-first, [`MemoryModel::roots_first`]).
    pub domain_decisions: u64,
    /// Always 0 (see the type docs).
    pub shelved_replayed: u64,
    /// Clauses purged by level-0 inprocessing, summed over the sweep's
    /// workers (0 with [`SynthConfig::inprocess`] off).
    pub simplify_removed: u64,
    /// Learnt clauses deleted by on-the-fly subsumption, summed over the
    /// sweep's workers.
    pub subsumed: u64,
    /// Literals removed by stripping / self-subsuming resolution, summed
    /// over the sweep's workers.
    pub strengthened: u64,
    /// Clause-arena garbage collections, summed over the sweep's workers.
    pub gc_runs: u64,
    /// Arena words reclaimed by those collections, summed over the
    /// sweep's workers.
    pub gc_reclaimed_words: u64,
}

/// Synthesizes the union suite over a range of bounds, merging canonical
/// sets (tests of different sizes never collide). Every (bound, axiom,
/// cube) task across the whole range fans out over one shared worker pool.
pub fn synthesize_union_up_to<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> CanonicalSuite {
    synthesize_union_up_to_with_stats(model, bounds, mk_cfg).0
}

/// Like [`synthesize_union_up_to`], also reporting the sweep's
/// [`SweepStats`].
pub fn synthesize_union_up_to_with_stats<M: MemoryModel + Sync>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> (CanonicalSuite, SweepStats) {
    let (union, stats, _) = sweep(model, bounds.map(mk_cfg).collect());
    (union, stats)
}

/// The per-axiom results of one bound of a sweep.
type BoundResults = BTreeMap<&'static str, SynthResult>;

/// The worker count of a sweep's pool: the largest of its bounds'
/// `threads`, each resolved first, so `0` (all cores) counts as the core
/// count rather than as the smallest setting.
fn sweep_threads(cfgs: &[SynthConfig]) -> usize {
    cfgs.iter()
        .map(|c| resolve_threads(c.threads))
        .max()
        .unwrap_or(1)
}

/// Runs one config per bound as a single pool of (bound, axiom, cube)
/// tasks and merges the results in bound order, each bound in axiom
/// order — the same shape as the sequential loop, so the result is
/// byte-identical to it. Returns the union, its stats and the per-axiom
/// results of every bound.
///
/// Tasks are planned bounds ascending; the pool claims them last first, so
/// with more than one worker the top bound's queries, which dominate a
/// sweep's time, start immediately.
fn sweep<M: MemoryModel + Sync>(
    model: &M,
    cfgs: Vec<SynthConfig>,
) -> (CanonicalSuite, SweepStats, Vec<BoundResults>) {
    let threads = sweep_threads(&cfgs);
    // The journal is consulted once per bound, up front — entries recorded
    // while the pool runs must not change which tasks this call planned.
    let mut plans = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    for cfg in &cfgs {
        let (hits, bound_tasks) = plan_with_journal(model, cfg);
        plans.push((hits, bound_tasks.len()));
        tasks.extend(bound_tasks);
    }
    let runs = run_tasks(model, &tasks, threads);

    let mut stats = SweepStats::default();
    let mut union: CanonicalSuite = BTreeMap::new();
    let mut per_bound = Vec::with_capacity(cfgs.len());
    let mut tasks = tasks.into_iter();
    let mut runs = runs.into_iter();
    for (cfg, (hits, count)) in cfgs.iter().zip(plans) {
        let bound_tasks: Vec<Task> = tasks.by_ref().take(count).collect();
        let bound_runs: Vec<CubeRun> = runs.by_ref().take(count).collect();
        let (per_axiom, u) = merge_union(model, bound_tasks, bound_runs, hits);
        for (&ax, r) in &per_axiom {
            stats.compilations += r.compilations as u64;
            stats.raw_instances += r.raw_instances as u64;
            stats.retries += r.retries;
            stats.degraded += r.degraded as u64;
            stats.exchange.0 += r.exchange.0;
            stats.exchange.1 += r.exchange.1;
            stats.exchange.2 += r.exchange.2;
            stats.propagations += r.propagations;
            stats.decisions += r.decisions;
            stats.domain_decisions += r.domain_decisions;
            stats.simplify_removed += r.simplify_removed;
            stats.subsumed += r.subsumed;
            stats.strengthened += r.strengthened;
            stats.gc_runs += r.gc_runs;
            stats.gc_reclaimed_words += r.gc_reclaimed_words;
            finish_query(model, ax, cfg, r);
        }
        union.extend(u);
        per_bound.push(per_axiom);
    }
    (union, stats, per_bound)
}

/// One shard-claimable unit of a sweep: a single (axiom, bound) query with
/// its fingerprinted [`WorkUnit`](litsynth_portfolio::WorkUnit) identity
/// and the config to run it under. The unit's `seq` is its position in the
/// sweep's deterministic merge order.
#[derive(Clone, Debug)]
pub struct UnitPlan {
    /// The unit's claimable identity (key, config fingerprint, merge seq).
    pub unit: litsynth_portfolio::WorkUnit,
    /// The query's axiom.
    pub axiom: &'static str,
    /// The query's event bound.
    pub bound: usize,
    /// The config the unit runs under.
    pub cfg: SynthConfig,
}

/// Plans a sweep as independent work units, in deterministic merge order:
/// bounds ascending, each bound's axioms in model order, `seq` numbering
/// the lot. The shard layer hands these out (in any order, to any worker)
/// and [`merge_unit_suites`] reassembles the results by `seq` — the merge
/// then matches [`synthesize_union_up_to`]'s bound-then-axiom loop
/// exactly, which is what makes served suites byte-identical to a direct
/// sweep.
pub fn plan_units<M: MemoryModel>(
    model: &M,
    bounds: std::ops::RangeInclusive<usize>,
    mk_cfg: impl Fn(usize) -> SynthConfig,
) -> Vec<UnitPlan> {
    let mut units = Vec::new();
    for bound in bounds {
        let cfg = mk_cfg(bound);
        for &axiom in model.axioms() {
            let seq = units.len();
            units.push(UnitPlan {
                unit: litsynth_portfolio::WorkUnit {
                    key: query_key(model.name(), axiom, bound).into(),
                    fingerprint: config_fingerprint(model.name(), axiom, &cfg),
                    seq,
                },
                axiom,
                bound,
                cfg: cfg.clone(),
            });
        }
    }
    units
}

/// Runs one planned unit to completion on the calling thread('s pool):
/// exactly [`synthesize_axiom`] under the unit's config — journaled,
/// resilient, byte-identical to the same query inside a direct sweep.
pub fn run_unit<M: MemoryModel + Sync>(model: &M, plan: &UnitPlan) -> SynthResult {
    synthesize_axiom(model, plan.axiom, &plan.cfg)
}

/// Merges per-unit suites *in `seq` order* into the sweep union.
///
/// Determinism: [`synthesize_union_up_to`] builds its union bound-by-bound
/// (each bound's axioms first-wins-merged in axiom order, bounds then
/// concatenated — cross-bound canonical keys are disjoint because every
/// test has exactly its bound's event count). A first-wins fold over the
/// unit suites in `seq` order is the same computation, so a sharded sweep
/// serves byte-identical suites no matter which shard ran which unit.
pub fn merge_unit_suites<'a>(
    suites: impl IntoIterator<Item = &'a CanonicalSuite>,
) -> CanonicalSuite {
    let mut union = CanonicalSuite::new();
    for suite in suites {
        for (k, v) in suite {
            union.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::check_minimal;
    use litsynth_litmus::{AxiomSpec, DepKind, FenceKind, Instr, MemOrder};
    use litsynth_models::{ConcreteAlg, Ctx, Power, RelAlg, RelaxKind, Sc, Scc, Tso, C11};
    use litsynth_relalg::{CompiledCircuit, Finder};
    use std::collections::BTreeSet;

    #[test]
    fn tso_sc_per_loc_bound_2_finds_the_three_coherence_kernels() {
        // At 2 instructions the minimal sc_per_loc tests are the three
        // single-thread coherence kernels: CoWW (write-write order), the
        // read-own-future-write test, and the overtaken-own-write test.
        let cfg = SynthConfig::new(2);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.len(), 3, "{:?}", r.tests.keys().collect::<Vec<_>>());
        for (t, o) in r.tests.values() {
            assert_eq!(t.num_threads(), 1);
            assert_eq!(t.num_events(), 2);
            assert!(check_minimal(&Tso::new(), "sc_per_loc", t, o).is_minimal());
        }
        // CoWW is among them.
        assert!(r
            .tests
            .values()
            .any(|(t, _)| t.instr(0).is_write() && t.instr(1).is_write()));
    }

    #[test]
    fn every_synthesized_test_is_oracle_minimal_tso_bound_3() {
        // Cross-validation at bound 3: everything the SAT path emits must
        // pass the exact exists-forall oracle (the Figure 5c approximation
        // only *loses* tests, it must not invent them — modulo the co
        // ambiguity that needs ≥3 same-address writes, impossible at 3
        // events with a read present).
        let m = Tso::new();
        let cfg = SynthConfig::new(3);
        for ax in m.axioms() {
            let r = synthesize_axiom(&m, ax, &cfg);
            for (t, o) in r.tests.values() {
                let v = check_minimal(&m, ax, t, o);
                assert!(
                    v.is_minimal(),
                    "{ax}: {t} {} not oracle-minimal: {v:?}",
                    o.display(t)
                );
            }
        }
    }

    #[test]
    fn sc_causality_bound_4_includes_the_classics() {
        let m = Sc::new();
        let cfg = SynthConfig::new(4);
        let r = synthesize_axiom(&m, "causality", &cfg);
        // SB, MP, LB, S, 2+2W, R all live at 4 instructions under SC.
        assert!(r.len() >= 6, "found {}", r.len());
        // And everything is oracle-minimal.
        for (t, o) in r.tests.values() {
            assert!(check_minimal(&m, "causality", t, o).is_minimal(), "{t}");
        }
    }

    /// Flattens a union result for byte-for-byte comparison.
    fn fingerprint(
        per_axiom: &BTreeMap<&'static str, SynthResult>,
        union: &CanonicalSuite,
    ) -> String {
        let mut s = String::new();
        for (ax, r) in per_axiom {
            for (k, (t, o)) in &r.tests {
                s.push_str(&format!("{ax}|{k}|{}\n", serialize(t, o)));
            }
        }
        for (k, (t, o)) in union {
            s.push_str(&format!("U|{k}|{}\n", serialize(t, o)));
        }
        s
    }

    #[test]
    fn parallel_union_is_byte_identical_to_sequential() {
        // The acceptance property of the parallel engine: any combination
        // of worker threads and cube splitting produces exactly the
        // sequential suite.
        for bound in 2..=4usize {
            for model_idx in 0..2 {
                let run = |threads: usize, cube_bits: usize| {
                    let mut cfg = SynthConfig::new(bound);
                    cfg.threads = threads;
                    cfg.cube_bits = cube_bits;
                    if model_idx == 0 {
                        let (p, u) = synthesize_union(&Sc::new(), &cfg);
                        (
                            fingerprint(&p, &u),
                            p.values().map(|r| r.raw_instances).sum::<usize>(),
                        )
                    } else {
                        let (p, u) = synthesize_union(&Tso::new(), &cfg);
                        (
                            fingerprint(&p, &u),
                            p.values().map(|r| r.raw_instances).sum::<usize>(),
                        )
                    }
                };
                let (seq, seq_raw) = run(1, 0);
                for (threads, cube_bits) in [(1, 2), (2, 0), (2, 2), (4, 0), (4, 2)] {
                    let (par, par_raw) = run(threads, cube_bits);
                    assert_eq!(
                        par, seq,
                        "threads={threads} cube_bits={cube_bits} bound={bound} model={model_idx}"
                    );
                    // Cubes partition the enumeration exactly: same number
                    // of raw instances in total.
                    assert_eq!(
                        par_raw, seq_raw,
                        "raw count drifted: threads={threads} cube_bits={cube_bits} \
                         bound={bound} model={model_idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_across_thread_counts() {
        let suites: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let u = synthesize_union_up_to(&Tso::new(), 2..=3, |n| {
                    SynthConfig::new(n).with_threads(threads).with_cube_bits(1)
                });
                u.iter()
                    .map(|(k, (t, o))| format!("{k}|{}\n", serialize(t, o)))
                    .collect()
            })
            .collect();
        assert_eq!(suites[0], suites[1]);
        assert_eq!(suites[0], suites[2]);
    }

    #[test]
    fn worker_stats_cover_every_cube() {
        // Adaptive engagement would (correctly) unsplit this small bound;
        // disabled here because cube accounting is exactly what's tested.
        let cfg = SynthConfig::new(2)
            .with_threads(2)
            .with_cube_bits(2)
            .with_adaptive_engage(false);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.workers.len(), 4);
        for (i, w) in r.workers.iter().enumerate() {
            assert_eq!(w.cube, i);
            assert_eq!(w.num_cubes, 4);
            assert_eq!(w.axiom, "sc_per_loc");
            assert_eq!(w.bound, 2);
        }
        assert_eq!(
            r.raw_instances,
            r.workers.iter().map(|w| w.raw_instances).sum::<usize>()
        );
        // Splitting never changes the canonical suite.
        let seq = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        assert_eq!(
            seq.tests.keys().collect::<Vec<_>>(),
            r.tests.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn exchange_matrix_is_byte_identical() {
        // The acceptance matrix of the portfolio subsystem: every
        // combination of worker threads, cube splitting, and clause
        // exchange produces exactly the sequential suite — the exchange may
        // prune search, never change the enumerated set. Raw instance
        // counts are compared too: imports must not swallow classes.
        let m = Tso::new();
        let run = |threads: usize, cube_bits: usize, exchange: bool| {
            // cross_check: every matrix leg is also semantically
            // re-verified by the polynomial consistency checker (CI's
            // determinism job rides on this test).
            let cfg = SynthConfig::new(3)
                .with_threads(threads)
                .with_cube_bits(cube_bits)
                .with_exchange(exchange)
                .with_cross_check(true);
            let (p, u) = synthesize_union(&m, &cfg);
            (
                fingerprint(&p, &u),
                p.values().map(|r| r.raw_instances).sum::<usize>(),
            )
        };
        let (seq, seq_raw) = run(1, 0, false);
        for threads in [1usize, 4] {
            for cube_bits in [0usize, 2] {
                for exchange in [false, true] {
                    let (got, got_raw) = run(threads, cube_bits, exchange);
                    assert_eq!(
                        got, seq,
                        "threads={threads} cube_bits={cube_bits} exchange={exchange}"
                    );
                    assert_eq!(
                        got_raw, seq_raw,
                        "raw drift: threads={threads} cube_bits={cube_bits} exchange={exchange}"
                    );
                }
            }
        }
        // Adaptive cube selection may repartition the cubes, but the union
        // and the total class count are invariant as well.
        let cfg = SynthConfig::new(3)
            .with_threads(4)
            .with_cube_bits(2)
            .with_adaptive_cubes(false);
        let (p, u) = synthesize_union(&m, &cfg);
        assert_eq!(fingerprint(&p, &u), seq);
        assert_eq!(
            p.values().map(|r| r.raw_instances).sum::<usize>(),
            seq_raw,
            "slot-order pins must partition too"
        );
    }

    #[test]
    fn one_compilation_per_query_and_counters_surface() {
        let m = Tso::new();
        let before = litsynth_relalg::compilations();
        let cfg = SynthConfig::new(2)
            .with_threads(4)
            .with_cube_bits(2)
            .with_adaptive_engage(false);
        let (p, _) = synthesize_union(&m, &cfg);
        let compiled = litsynth_relalg::compilations() - before;
        // The union must have compiled at least one CNF per query. The
        // process-wide counter can also tick from *other* tests running
        // concurrently in this binary, so exactness is asserted on the
        // race-free per-query counters below, not on the global delta.
        assert!(compiled as usize >= m.axioms().len());
        for (ax, r) in &p {
            // Exactly one circuit→CNF compilation per (axiom, bound)
            // query, no matter how many cube workers attached.
            assert_eq!(r.compilations, 1, "{ax}");
            assert_eq!(r.workers.len(), 4, "{ax}");
            // Worker counters roll up into the query-level totals.
            assert_eq!(
                r.exchange,
                (
                    r.workers.iter().map(|w| w.exported).sum::<u64>(),
                    r.workers.iter().map(|w| w.imported).sum::<u64>(),
                    r.workers.iter().map(|w| w.filtered).sum::<u64>(),
                ),
                "{ax}"
            );
        }
        // A sweep compiles once per query too: nothing is shared across
        // queries, so the per-query sum is the query count.
        let (_, stats) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
        assert_eq!(stats.compilations as usize, 2 * m.axioms().len());
        assert_eq!(stats.extensions, 0);
        assert_eq!(stats.vault, VaultStats::default());
    }

    /// One bound's roots as a layered sweep chain compiles them: the
    /// skeleton's (well-formedness, observables, kind selectors), then
    /// each axiom's minimality asserts, in axiom order.
    fn chain_roots(alg: &mut SymAlg, m: &Tso, bound: usize) -> (Vec<Bit>, Vec<Vec<Bit>>) {
        let cfg = SynthConfig::new(bound);
        let st = SymbolicTest::build(alg, m, &cfg);
        let candidates: Vec<Bit> = st.kind.iter().flatten().copied().collect();
        let skeleton: Vec<Bit> = st
            .wellformed
            .iter()
            .chain(&st.observables)
            .chain(&candidates)
            .copied()
            .collect();
        let asserts = m
            .axioms()
            .iter()
            .map(|&ax| minimality_asserts_opts(alg, m, &st, ax, cfg.orphan_unconstrained))
            .collect();
        (skeleton, asserts)
    }

    /// Links one bound onto a sweep chain: its skeleton layer (a full
    /// compilation on the first bound, an extension after that) and then
    /// one definitional layer per axiom. Returns the skeleton link and the
    /// full link.
    fn link_bound(
        alg: &SymAlg,
        chain: Option<&CompiledCircuit>,
        skeleton: &[Bit],
        asserts: &[Vec<Bit>],
    ) -> (CompiledCircuit, CompiledCircuit) {
        let roots = skeleton.iter().copied();
        let skel = match chain {
            None => CompiledCircuit::compile_tagged(&alg.circuit, roots, true),
            Some(prev) => CompiledCircuit::extend(prev, &alg.circuit, roots, true),
        };
        let mut full: Option<CompiledCircuit> = None;
        for ax_asserts in asserts {
            let base = full.as_ref().unwrap_or(&skel);
            let ax_roots = ax_asserts.iter().copied();
            full = Some(CompiledCircuit::extend_definitional(
                base,
                &alg.circuit,
                ax_roots,
                true,
            ));
        }
        let full = full.expect("every model has an axiom");
        (skel, full)
    }

    #[test]
    fn incremental_chain_cnf_matches_from_scratch_modulo_renaming() {
        // The layered-compilation soundness property, for bounds 2..=4:
        // the layer chain — each bound's skeleton link followed by one
        // definitional link per axiom — contains exactly the clauses a
        // from-scratch compilation of the same cumulative roots produces,
        // modulo variable renaming. Every cone is Tseitin-encoded exactly
        // once per chain, nothing more and nothing less.
        let m = Tso::new();
        let mut alg = SymAlg::new();
        let mut chain: Option<CompiledCircuit> = None;
        let mut cumulative_roots: Vec<Bit> = Vec::new();
        for bound in 2..=4usize {
            let (skeleton_roots, asserts) = chain_roots(&mut alg, &m, bound);
            let (skeleton, full) = link_bound(&alg, chain.as_ref(), &skeleton_roots, &asserts);
            cumulative_roots.extend(&skeleton_roots);
            let scratch = CompiledCircuit::compile(&alg.circuit, cumulative_roots.iter().copied());
            assert!(
                skeleton.same_cnf_modulo_renaming(&scratch),
                "skeleton chain diverged from scratch at bound {bound}"
            );
            cumulative_roots.extend(asserts.iter().flatten());
            let scratch = CompiledCircuit::compile(&alg.circuit, cumulative_roots.iter().copied());
            assert!(
                full.same_cnf_modulo_renaming(&scratch),
                "definitions link diverged from scratch at bound {bound}"
            );
            chain = Some(full);
        }
    }

    #[test]
    fn incremental_sweep_compiles_once_and_reuses_the_skeleton() {
        // A sweep laid out as one layer chain (the layout the benchmark's
        // compile layer replays) compiles once: every later link is an
        // extension that inherits its base's clauses instead of
        // re-encoding them. The direct sweep compiles every query on its
        // own and extends nothing.
        let m = Tso::new();
        let mut alg = SymAlg::new();
        let compiles = litsynth_relalg::thread_compilations();
        let extensions = litsynth_relalg::incremental_extensions();
        let reused = litsynth_relalg::reused_clauses();
        let mut chain: Option<CompiledCircuit> = None;
        for bound in 2..=3usize {
            let (skeleton_roots, asserts) = chain_roots(&mut alg, &m, bound);
            chain = Some(link_bound(&alg, chain.as_ref(), &skeleton_roots, &asserts).1);
        }
        assert_eq!(
            litsynth_relalg::thread_compilations() - compiles,
            1,
            "one full compile per chain"
        );
        // Two bounds → one definitional link per axiom on the first, and
        // a skeleton link plus one definitional link per axiom on the
        // second: 2·A+1 extensions. The process-wide counters may only
        // over-count, from tests running concurrently in this binary.
        let expected = 2 * m.axioms().len() as u64 + 1;
        let extended = litsynth_relalg::incremental_extensions() - extensions;
        assert!(extended >= expected, "{extended} < {expected}");
        assert!(
            litsynth_relalg::reused_clauses() > reused,
            "extensions must reuse clauses"
        );
        let (_, stats) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
        assert_eq!(
            stats.compilations as usize,
            2 * m.axioms().len(),
            "the direct sweep compiles once per query"
        );
        assert_eq!(stats.extensions, 0);
        assert_eq!(stats.reused_clauses, 0);
    }

    #[test]
    fn union_up_to_is_byte_identical_across_sat_core_toggles() {
        // The SAT-core matrix: level-0 inprocessing only removes
        // satisfied/subsumed clauses and false literals, tiered retention
        // only discards learnt clauses, and the clause arena is pure
        // storage — all only-prune or storage-only, so the suite is
        // byte-identical across {inprocess} × {tiered} at any thread count
        // or cube split (DESIGN §3c).
        let m = Tso::new();
        let run = |inprocess: bool, tiered: bool, threads: usize, cube_bits: usize| {
            let u = synthesize_union_up_to(&m, 2..=3, |n| {
                SynthConfig::new(n)
                    .with_threads(threads)
                    .with_cube_bits(cube_bits)
                    .with_inprocess(inprocess)
                    .with_tiered(tiered)
                    .with_cross_check(true)
            });
            suite_bytes(&u)
        };
        // Everything off, sequential: the legacy core.
        let baseline = run(false, false, 1, 0);
        for (inprocess, tiered, threads, cube_bits) in [
            // each knob isolated on the sequential path
            (true, false, 1, 0),
            (false, true, 1, 0),
            // both on (the default core), sequential and parallel
            (true, true, 1, 0),
            (true, true, 2, 1),
            (true, true, 4, 2),
            // legacy core split and parallel
            (false, false, 4, 2),
        ] {
            assert_eq!(
                run(inprocess, tiered, threads, cube_bits),
                baseline,
                "inprocess={inprocess} tiered={tiered} threads={threads} cube_bits={cube_bits}"
            );
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_across_incremental_and_vault_modes() {
        // Layered sweep compilation and the cross-query clause vault are
        // gone: every query compiles and solves on its own, the mode this
        // test always took as its baseline. What remains to pin is that a
        // sweep's suite does not depend on how its queries are grouped —
        // it equals per-bound `synthesize_union` runs and per-query
        // `synthesize_axiom` runs merged in (bound, axiom) order, at any
        // thread count or cube split.
        let m = Tso::new();
        let cfg = |n: usize, threads: usize, cube_bits: usize| {
            SynthConfig::new(n)
                .with_threads(threads)
                .with_cube_bits(cube_bits)
        };
        let baseline = suite_bytes(&synthesize_union_up_to(&m, 2..=3, |n| cfg(n, 1, 0)));
        for (threads, cube_bits) in [(1, 0), (2, 1), (4, 2)] {
            let leg = format!("threads={threads} cube_bits={cube_bits}");
            if (threads, cube_bits) != (1, 0) {
                let swept = synthesize_union_up_to(&m, 2..=3, |n| cfg(n, threads, cube_bits));
                assert_eq!(suite_bytes(&swept), baseline, "sweep {leg}");
            }
            let per_bound: Vec<CanonicalSuite> = (2..=3)
                .map(|n| synthesize_union(&m, &cfg(n, threads, cube_bits)).1)
                .collect();
            let merged = merge_unit_suites(&per_bound);
            assert_eq!(suite_bytes(&merged), baseline, "per bound {leg}");
            let per_query: Vec<SynthResult> = (2..=3)
                .flat_map(|n| {
                    let m = &m;
                    m.axioms()
                        .iter()
                        .map(move |ax| synthesize_axiom(m, ax, &cfg(n, threads, cube_bits)))
                })
                .collect();
            let merged = merge_unit_suites(per_query.iter().map(|r| &r.tests));
            assert_eq!(suite_bytes(&merged), baseline, "per query {leg}");
        }
    }

    /// `M` with roots-first branching forced on or off; everything else
    /// is `M`'s own.
    struct RootsFirst<M> {
        inner: M,
        on: bool,
    }

    impl<M: MemoryModel> MemoryModel for RootsFirst<M> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn axioms(&self) -> &'static [&'static str] {
            self.inner.axioms()
        }
        fn axiom<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, axiom: &str) -> A::B {
            self.inner.axiom(alg, ctx, axiom)
        }
        fn valid<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> A::B {
            self.inner.valid(alg, ctx)
        }
        fn synthesis_axiom<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, axiom: &str) -> A::B {
            self.inner.synthesis_axiom(alg, ctx, axiom)
        }
        fn synthesis_valid<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> A::B {
            self.inner.synthesis_valid(alg, ctx)
        }
        fn roots_first(&self) -> bool {
            self.on
        }
        fn check_specs(&self, test: &LitmusTest, ctx: &Ctx<ConcreteAlg>) -> Vec<AxiomSpec> {
            self.inner.check_specs(test, ctx)
        }
        fn fence_kinds(&self) -> &'static [FenceKind] {
            self.inner.fence_kinds()
        }
        fn read_orders(&self) -> &'static [MemOrder] {
            self.inner.read_orders()
        }
        fn write_orders(&self) -> &'static [MemOrder] {
            self.inner.write_orders()
        }
        fn rmw_orders(&self) -> &'static [MemOrder] {
            self.inner.rmw_orders()
        }
        fn dep_kinds(&self) -> &'static [DepKind] {
            self.inner.dep_kinds()
        }
        fn uses_rmw_pairs(&self) -> bool {
            self.inner.uses_rmw_pairs()
        }
        fn uses_sc_order(&self) -> bool {
            self.inner.uses_sc_order()
        }
        fn relaxations(&self) -> Vec<RelaxKind> {
            self.inner.relaxations()
        }
        fn fence_demotions(&self, kind: FenceKind) -> Vec<FenceKind> {
            self.inner.fence_demotions(kind)
        }
        fn order_demotions(&self, instr: Instr) -> Vec<MemOrder> {
            self.inner.order_demotions(instr)
        }
        fn instr_wellformed(&self, instr: Instr) -> bool {
            self.inner.instr_wellformed(instr)
        }
    }

    #[test]
    fn union_up_to_is_byte_identical_with_lazy_on_and_off() {
        // Of the lazy-attach family — dormant definitional cones, the
        // shelving of imports over them, and the decision domain — only
        // the domain remains, as the per-model roots-first rule
        // (`MemoryModel::roots_first`). It only reorders decisions, so
        // flipping it either way must leave the suite byte-identical, at
        // any thread count or cube split.
        fn run<M: MemoryModel + Sync>(m: &M, threads: usize, cube_bits: usize) -> (String, u64) {
            let (u, s) = synthesize_union_up_to_with_stats(m, 2..=3, |n| {
                SynthConfig::new(n)
                    .with_threads(threads)
                    .with_cube_bits(cube_bits)
                    .with_cross_check(true)
            });
            (suite_bytes(&u), s.domain_decisions)
        }
        for (threads, cube_bits) in [(1, 0), (2, 1)] {
            let leg = format!("threads={threads} cube_bits={cube_bits}");
            let (tso, off) = run(&Tso::new(), threads, cube_bits);
            let flipped = RootsFirst {
                inner: Tso::new(),
                on: true,
            };
            let (tso_on, on) = run(&flipped, threads, cube_bits);
            assert_eq!(off, 0, "TSO {leg}");
            assert!(on > 0, "forced roots-first TSO must branch on roots, {leg}");
            assert_eq!(tso_on, tso, "TSO {leg}");
            let (power, on) = run(&Power::new(), threads, cube_bits);
            let flipped = RootsFirst {
                inner: Power::new(),
                on: false,
            };
            let (power_off, off) = run(&flipped, threads, cube_bits);
            assert!(on > 0, "Power {leg}");
            assert_eq!(off, 0, "Power {leg}");
            assert_eq!(power_off, power, "Power {leg}");
        }
    }

    #[test]
    fn sweep_reports_inprocessing_counters_when_enabled() {
        // The counters must roll all the way up: with the default config
        // (inprocessing on) a sweep records the subsumption leg's work,
        // and with the knob off every inprocessing counter is exactly
        // zero. (The satisfied-clause purge finds nothing on a fresh
        // solver at these bounds: no level-0 fact satisfies a blocking
        // clause, so `simplify_removed` reads 0 either way.)
        let m = Tso::new();
        let (_, s_on) = synthesize_union_up_to_with_stats(&m, 2..=3, SynthConfig::new);
        assert!(
            s_on.subsumed + s_on.strengthened > 0,
            "inprocessing enabled but nothing subsumed or strengthened across a sweep"
        );
        let (_, s_off) = synthesize_union_up_to_with_stats(&m, 2..=3, |n| {
            SynthConfig::new(n).with_inprocess(false)
        });
        assert_eq!(s_off.simplify_removed, 0);
        assert_eq!(s_off.subsumed, 0);
        assert_eq!(s_off.strengthened, 0);
    }

    #[test]
    fn sweep_reports_domain_decisions_when_enabled() {
        // Roots-first branching is a property of the model: a Power sweep
        // serves some decisions from the declared roots (bounded by the
        // total), a TSO sweep none.
        let (_, power) = synthesize_union_up_to_with_stats(&Power::new(), 2..=3, SynthConfig::new);
        assert!(
            power.domain_decisions > 0,
            "Power branches roots-first but no root decisions were recorded"
        );
        assert!(power.domain_decisions <= power.decisions);
        let (_, tso) = synthesize_union_up_to_with_stats(&Tso::new(), 2..=3, SynthConfig::new);
        assert!(tso.decisions > 0);
        assert_eq!(tso.domain_decisions, 0);
    }

    #[test]
    fn direct_sweep_and_served_units_do_identical_work() {
        // One path: a direct sweep and the served per-unit path run every
        // query the same way, so they emit the same bytes *and* do the
        // same solver work, for every model.
        fn check<M: MemoryModel + Sync>(m: &M, hi: usize) {
            let (direct, stats) = synthesize_union_up_to_with_stats(m, 2..=hi, SynthConfig::new);
            let plans = plan_units(m, 2..=hi, SynthConfig::new);
            let results: Vec<SynthResult> = plans.iter().map(|p| run_unit(m, p)).collect();
            let served = merge_unit_suites(results.iter().map(|r| &r.tests));
            assert_eq!(suite_bytes(&direct), suite_bytes(&served), "{}", m.name());
            let props: u64 = results.iter().map(|r| r.propagations).sum();
            let decs: u64 = results.iter().map(|r| r.decisions).sum();
            assert_eq!(stats.propagations, props, "{} propagations", m.name());
            assert_eq!(stats.decisions, decs, "{} decisions", m.name());
            assert!(props > 0, "{}", m.name());
        }
        check(&Sc::new(), 3);
        check(&Tso::new(), 3);
        check(&Power::new(), 3);
        check(&Power::armv7(), 3);
        check(&Scc::new(), 3);
        check(&C11::new(), 3);
    }

    #[test]
    fn default_sweep_matches_sequential_sweep() {
        // The library default runs a sweep on every core, claiming the
        // top bound first. With cube_bits 0 each query's search is the
        // same on whichever worker runs it, so the suite bytes and the
        // solver work equal the one-thread sweep's.
        fn check<M: MemoryModel + Sync>(m: &M, hi: usize) {
            let (default, d) = synthesize_union_up_to_with_stats(m, 2..=hi, SynthConfig::new);
            let (sequential, s) = synthesize_union_up_to_with_stats(m, 2..=hi, |n| {
                SynthConfig::new(n).with_threads(1)
            });
            let at = format!("{} 2..={hi}", m.name());
            assert_eq!(suite_bytes(&default), suite_bytes(&sequential), "{at}");
            assert_eq!(d.propagations, s.propagations, "{at} propagations");
            assert_eq!(d.decisions, s.decisions, "{at} decisions");
            assert!(s.propagations > 0, "{at}");
        }
        check(&Sc::new(), 3);
        check(&Tso::new(), 3);
        check(&Power::new(), 3);
        check(&Power::armv7(), 3);
        check(&Scc::new(), 3);
        check(&C11::new(), 3);
        check(&Tso::new(), 4);
    }

    #[test]
    fn facts_enumerate_the_classes_assumptions_do() {
        // Attached workers hold a query's minimality asserts as level-0
        // facts. Passing the same asserts as assumptions on every solve
        // (kept here only as the reference) must enumerate the same
        // canonical classes: the suite keys of `synthesize_axiom`.
        fn check<M: MemoryModel + Sync>(m: &M, n: usize) {
            let cfg = SynthConfig::new(n).with_threads(1);
            for &axiom in m.axioms() {
                let q = build_query(m, &cfg, static_axiom(m, axiom));
                let circuit = q.query.circuit();
                let mut f = Finder::attach(q.query.compiled());
                let mut canon = TwoTierCanon::new();
                let mut keys = BTreeSet::new();
                while let Some(inst) = f.next_instance(circuit, q.query.asserts()) {
                    let (test, outcome) = q.st.extract(circuit, &inst);
                    keys.insert(if cfg.exact_canon {
                        canon.canonicalize(&test, &outcome).0
                    } else {
                        canonical_key_hash(&test, &outcome)
                    });
                    f.block(circuit, &inst, &q.st.observables);
                }
                let facts: BTreeSet<String> =
                    synthesize_axiom(m, axiom, &cfg).tests.into_keys().collect();
                assert_eq!(keys, facts, "{} {axiom} bound {n}", m.name());
            }
        }
        for n in 2..=3 {
            check(&Sc::new(), n);
            check(&Tso::new(), n);
            check(&Power::new(), n);
            check(&Power::armv7(), n);
            check(&Scc::new(), n);
            check(&C11::new(), n);
        }
        check(&Tso::new(), 4);
    }

    #[test]
    fn sweep_threads_resolve_all_cores_before_taking_the_max() {
        // `0` means all cores, so a sweep mixing it with an explicit
        // count must run on the larger of the two, not on the explicit
        // count.
        let cfgs = |threads: &[usize]| -> Vec<SynthConfig> {
            threads
                .iter()
                .map(|&t| SynthConfig::new(2).with_threads(t))
                .collect()
        };
        let cores = resolve_threads(0);
        assert_eq!(sweep_threads(&cfgs(&[0, 1])), cores);
        assert_eq!(sweep_threads(&cfgs(&[1, 0])), cores);
        assert_eq!(sweep_threads(&cfgs(&[0, 3])), cores.max(3));
        assert_eq!(sweep_threads(&cfgs(&[1, 2])), 2);
        assert_eq!(sweep_threads(&[]), 1);
    }

    #[test]
    fn progress_elapsed_is_the_query_wall_time() {
        // A sweep's progress event carries the query's own wall time,
        // which covers at least its workers' time (without cubes a query
        // has one worker, and the query's window spans its run).
        use crate::symbolic::{ProgressEvent, ProgressSink};
        let events: Arc<std::sync::Mutex<Vec<ProgressEvent>>> = Arc::default();
        let sink = {
            let events = events.clone();
            ProgressSink::new(move |e| events.lock().unwrap().push(e.clone()))
        };
        let cfgs = (2..=4)
            .map(|n| SynthConfig::new(n).with_progress(Some(sink.clone())))
            .collect();
        let (_, _, per_bound) = sweep(&Tso::new(), cfgs);
        let r = &per_bound[2]["causality"];
        let workers: Duration = r.workers.iter().map(|w| w.elapsed).sum();
        assert!(workers > Duration::ZERO);
        let got = events.lock().unwrap();
        let e = got
            .iter()
            .find(|e| e.key == "tso/causality/4")
            .expect("one event per query");
        assert_eq!(e.elapsed, r.elapsed);
        assert!(
            e.elapsed >= workers,
            "event {:?} < worker time {workers:?}",
            e.elapsed
        );
    }

    #[test]
    fn cube_bits_clamp_to_the_selector_count() {
        // 2 events × 3 TSO shapes = 6 selector bits; asking for 40 must
        // clamp, not allocate 2^40 cubes. (Engagement heuristic off: the
        // clamp is what's tested, not the small-bound downgrade.)
        let cfg = SynthConfig::new(2)
            .with_cube_bits(40)
            .with_adaptive_engage(false);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.workers.len(), 1 << 6);
        assert_eq!(r.len(), 3);
    }

    // ----- resilience: journal resume, panic retry, degradation -----

    use crate::journal::Journal;
    use litsynth_sat::FaultPlan;

    fn temp_journal(tag: &str) -> (std::path::PathBuf, Arc<Journal>) {
        let dir =
            std::env::temp_dir().join(format!("litsynth-synth-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::open(&dir).expect("journal opens");
        (dir, j)
    }

    fn suite_bytes(tests: &CanonicalSuite) -> String {
        tests
            .iter()
            .map(|(k, (t, o))| format!("{k}|{}\n", serialize(t, o)))
            .collect()
    }

    #[test]
    fn journaled_query_is_replayed_byte_identically_without_solving() {
        let (dir, j) = temp_journal("axiom-resume");
        let cfg = SynthConfig::new(2).with_journal(Some(j));
        let first = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert!(!first.from_journal);
        assert_eq!(first.compilations, 1);
        let second = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert!(second.from_journal, "second run must hit the journal");
        assert_eq!(second.compilations, 0, "no solver work on a replay");
        assert_eq!(second.raw_instances, 0);
        assert_eq!(suite_bytes(&first.tests), suite_bytes(&second.tests));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fingerprint_guards_against_config_drift() {
        // A journal entry recorded at one bound/config must not satisfy a
        // different query — but *parallelism* knobs don't re-run anything,
        // because suites are byte-identical across them by construction.
        let (dir, j) = temp_journal("fingerprint");
        let cfg = SynthConfig::new(2).with_journal(Some(j.clone()));
        synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        let other_bound = SynthConfig::new(3).with_journal(Some(j.clone()));
        assert!(
            !synthesize_axiom(&Tso::new(), "sc_per_loc", &other_bound).from_journal,
            "bound 3 must not reuse the bound-2 entry"
        );
        let more_threads = SynthConfig::new(2)
            .with_journal(Some(j))
            .with_threads(4)
            .with_cube_bits(2);
        assert!(
            synthesize_axiom(&Tso::new(), "sc_per_loc", &more_threads).from_journal,
            "parallelism knobs don't invalidate the journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn union_resume_skips_journaled_axioms_and_stays_byte_identical() {
        let (dir, j) = temp_journal("union-resume");
        let m = Tso::new();
        let clean = {
            let cfg = SynthConfig::new(2);
            let (p, u) = synthesize_union(&m, &cfg);
            (fingerprint(&p, &u), suite_bytes(&u))
        };
        let cfg = SynthConfig::new(2).with_journal(Some(j.clone()));
        let (p1, u1) = synthesize_union(&m, &cfg);
        assert!(p1.values().all(|r| !r.from_journal));
        assert_eq!(j.entries(), m.axioms().len(), "every axiom journaled");
        let (p2, u2) = synthesize_union(&m, &cfg);
        assert!(
            p2.values().all(|r| r.from_journal),
            "every axiom must be replayed on resume"
        );
        assert_eq!(clean.0, fingerprint(&p1, &u1));
        assert_eq!(clean.1, suite_bytes(&u2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn union_up_to_resumes_from_a_partially_filled_journal() {
        // Journal only *some* of the range's queries (as a kill mid-run
        // would), then resume: the final union must be byte-identical to
        // an uninterrupted run and the journaled bound must be skipped.
        let (dir, j) = temp_journal("upto-resume");
        let m = Tso::new();
        let clean = synthesize_union_up_to(&m, 2..=3, SynthConfig::new);
        // Pre-fill bound 2 only, as if the process died during bound 3.
        let cfg2 = SynthConfig::new(2).with_journal(Some(j.clone()));
        synthesize_union(&m, &cfg2);
        assert_eq!(j.entries(), m.axioms().len());
        let resumed = synthesize_union_up_to(&m, 2..=3, {
            let j = j.clone();
            move |n| SynthConfig::new(n).with_journal(Some(j.clone()))
        });
        assert_eq!(suite_bytes(&clean), suite_bytes(&resumed));
        assert_eq!(
            j.entries(),
            2 * m.axioms().len(),
            "the resumed run journals the remaining bound"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_is_retried_and_the_suite_is_unchanged() {
        let clean = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        // Panic on the first attempt of cube 0, first restart; the retry
        // (attempt 1) doesn't match and completes.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@0@0@0@panic").expect("plan parses");
        let cfg = SynthConfig::new(2).with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.degraded, 0, "failures: {:?}", r.workers[0].failures);
        assert!(r.retries > 0, "the panicked attempt must be retried");
        assert!(!r.workers[0].failures.is_empty());
        assert_eq!(suite_bytes(&clean.tests), suite_bytes(&r.tests));
    }

    #[test]
    fn persistent_panic_degrades_without_poisoning_the_run() {
        // Panic on *every* attempt of cube 0: the query must still return,
        // marked degraded, with the other cubes' results intact.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@0@*@0@panic").expect("plan parses");
        let cfg = SynthConfig::new(2)
            .with_cube_bits(1)
            .with_adaptive_engage(false)
            .with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.degraded, 1);
        assert!(r.workers[0].degraded);
        assert_eq!(r.workers[0].failures.len(), cfg.max_attempts);
        assert!(!r.workers[1].degraded, "cube 1 must be unaffected");
        // And a degraded result is never journaled.
        let (dir, j) = temp_journal("degraded");
        let cfg = cfg.with_journal(Some(j.clone()));
        synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(j.entries(), 0, "degraded queries must not checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_interrupt_keeps_partial_work_and_retries_to_the_full_suite() {
        let clean = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        // Force a budget-style interrupt on attempt 0 at every restart;
        // attempt 1 runs uninterrupted.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@*@0@*@interrupt").expect("plan parses");
        let cfg = SynthConfig::new(2).with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert_eq!(r.degraded, 0);
        assert!(r.retries > 0);
        assert_eq!(suite_bytes(&clean.tests), suite_bytes(&r.tests));

        // Interrupt *every* attempt: the result degrades to the partial
        // enumeration instead of hanging or panicking.
        let plan = FaultPlan::parse("tso/sc_per_loc/2@*@*@*@interrupt").expect("plan parses");
        let cfg = SynthConfig::new(2).with_fault_plan(Some(Arc::new(plan)));
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &cfg);
        assert!(r.degraded > 0);
        assert!(r.workers.iter().all(|w| w.attempts == cfg.max_attempts));
    }

    #[test]
    fn budget_plumbing_with_default_knobs_leaves_the_suite_exact() {
        // All budget knobs at their defaults (0 = unlimited) must take the
        // unlimited path: no interrupts, no retries, the exact suite.
        // (Deterministic budget *trips* are covered by the injected
        // `interrupt` action above and by the solver-level budget tests —
        // real conflict/deadline limits at this bound would be timing- or
        // heuristic-dependent.)
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &SynthConfig::new(2));
        assert_eq!(r.degraded, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn units_run_in_any_order_merge_to_the_direct_sweep() {
        // The shard layer's contract: run the planned units in *any* order
        // (here: reversed, the worst case for a completion-order merge),
        // merge by seq, and the union is byte-identical to a direct sweep.
        let m = Tso::new();
        let direct = synthesize_union_up_to(&m, 2..=3, SynthConfig::new);
        let plans = plan_units(&m, 2..=3, SynthConfig::new);
        assert_eq!(plans.len(), 2 * m.axioms().len());
        assert!(plans.iter().enumerate().all(|(i, p)| p.unit.seq == i));
        let mut suites: Vec<(usize, CanonicalSuite)> = plans
            .iter()
            .rev()
            .map(|p| (p.unit.seq, run_unit(&m, p).tests))
            .collect();
        suites.sort_by_key(|&(seq, _)| seq);
        let merged = merge_unit_suites(suites.iter().map(|(_, s)| s));
        assert_eq!(suite_bytes(&direct), suite_bytes(&merged));
    }

    #[test]
    fn adaptive_engagement_downgrades_small_bounds_to_one_worker() {
        // Below the engagement threshold the portfolio machinery is pure
        // overhead: the heuristic must collapse cube splitting to a single
        // worker, count the downgrade, and leave the suite untouched.
        let engaged = SynthConfig::new(2)
            .with_threads(2)
            .with_cube_bits(2)
            .with_adaptive_engage(false);
        let full = synthesize_axiom(&Tso::new(), "sc_per_loc", &engaged);
        assert_eq!(full.workers.len(), 4, "opt-out keeps all 2^2 cubes");

        let before = engage_downgrades();
        let auto = SynthConfig::new(2).with_threads(2).with_cube_bits(2);
        assert!(auto.adaptive_engage, "the heuristic is on by default");
        let small = synthesize_axiom(&Tso::new(), "sc_per_loc", &auto);
        assert_eq!(small.workers.len(), 1, "downgraded to a single worker");
        assert!(
            engage_downgrades() > before,
            "the downgrade counter must prove which path ran"
        );
        assert_eq!(suite_bytes(&full.tests), suite_bytes(&small.tests));

        // At or above the threshold the knobs are honored as given.
        let at = SynthConfig::new(3).with_cube_bits(1);
        let r = synthesize_axiom(&Tso::new(), "sc_per_loc", &at);
        assert_eq!(r.workers.len(), 2, "bound 3 engages the portfolio");
    }

    #[test]
    fn progress_sink_reports_every_query_and_flags_journal_replays() {
        use crate::symbolic::{ProgressEvent, ProgressSink};
        let (dir, j) = temp_journal("progress");
        let events: Arc<std::sync::Mutex<Vec<ProgressEvent>>> = Arc::default();
        let mk_cfg = {
            let (j, events) = (j.clone(), events.clone());
            move |n: usize| {
                let events = events.clone();
                SynthConfig::new(n)
                    .with_journal(Some(j.clone()))
                    .with_progress(Some(ProgressSink::new(move |e| {
                        events.lock().unwrap().push(e.clone())
                    })))
            }
        };
        let m = Tso::new();
        synthesize_union_up_to(&m, 2..=3, mk_cfg.clone());
        {
            let got = events.lock().unwrap();
            assert_eq!(got.len(), 2 * m.axioms().len(), "one event per query");
            assert!(got.iter().all(|e| !e.from_journal));
            // Not every query yields tests (rmw_atomicity/2 is empty), but
            // the sweep as a whole must.
            assert!(got.iter().any(|e| e.tests > 0));
            assert!(got.iter().any(|e| e.key == "tso/sc_per_loc/2"));
            assert!(got.iter().any(|e| e.key == "tso/causality/3"));
        }
        events.lock().unwrap().clear();
        synthesize_union_up_to(&m, 2..=3, mk_cfg);
        let got = events.lock().unwrap();
        assert_eq!(got.len(), 2 * m.axioms().len());
        assert!(
            got.iter().all(|e| e.from_journal),
            "replayed queries must be flagged as journal hits"
        );
        drop(got);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
