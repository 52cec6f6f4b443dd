//! The CDCL solver proper.

use crate::arena::{ClauseArena, TIER_CORE, TIER_LOCAL, TIER_MID};
use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
use crate::exchange::{ClauseExchange, NoExchange};
use crate::fault::FaultAction;
use crate::heap::{ActivityHeap, DecisionDomain};
use crate::shared::SharedCnf;
use crate::types::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// `true` if the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }
}

/// Aggregate search statistics, useful for the benchmark harness.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Literals over every clause learnt so far, counted after
    /// minimization (a learnt unit counts 1). Every conflict above the
    /// assumption levels learns one clause, so divided by `conflicts` this
    /// is close to the average learnt-clause length.
    pub learnt_literals: u64,
    /// Decisions served from the declared roots first (always ≤
    /// `decisions`; 0 unless roots-first branching is enabled).
    pub domain_decisions: u64,
    /// Level-0 inprocessing: clauses purged because they were satisfied at
    /// level 0.
    pub simplify_removed: u64,
    /// Learnt clauses deleted because another learnt clause subsumed them.
    pub subsumed: u64,
    /// Literals removed from learnt clauses by level-0 false-literal
    /// stripping and self-subsuming resolution.
    pub strengthened: u64,
    /// Relocation GC passes over the local clause arena.
    pub gc_runs: u64,
    /// Arena words reclaimed by those GC passes.
    pub gc_reclaimed_words: u64,
    /// Live learnt clauses in the CORE retention tier (LBD ≤ 2; immortal).
    pub learnts_core: u64,
    /// Live learnt clauses in the MID retention tier (LBD ≤ 6; demoted to
    /// LOCAL when unused between two reductions).
    pub learnts_mid: u64,
    /// Live learnt clauses in the LOCAL retention tier (the
    /// activity-sorted deletion pool).
    pub learnts_local: u64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// Clause activities are stored as f32 bits in the arena header, so the
/// rescale threshold is far below the variable one.
const RESCALE_LIMIT_CLA: f64 = 1e20;
const RESTART_BASE: u64 = 100;
/// LBD boundaries of the learnt retention tiers.
const CORE_LBD: u32 = 2;
const MID_LBD: u32 = 6;
/// Initial live-learnt budget: `reduce_db` fires when the live learnt
/// count passes it (a function of database size, not conflict cadence),
/// and the budget grows geometrically afterwards.
const LEARNT_BUDGET_INIT: f64 = 1000.0;
const LEARNT_BUDGET_GROWTH: f64 = 1.3;
/// On-the-fly subsumption queue cap: learnts past it skip the queue (the
/// pass is opportunistic; missing one only costs pruning).
const SUBSUME_QUEUE_CAP: usize = 10_000;

fn tier_for_lbd(lbd: u32) -> u32 {
    if lbd <= CORE_LBD {
        TIER_CORE
    } else if lbd <= MID_LBD {
        TIER_MID
    } else {
        TIER_LOCAL
    }
}

/// A CDCL SAT solver. See the crate-level documentation for an overview and
/// example.
///
/// A solver owns its whole clause database. [`Solver::attach_shared`]
/// copies a compiled [`SharedCnf`] into the solver's own flat arena, so a
/// loaded solver watches, reorders and deletes the compiled clauses exactly
/// like the ones it adds itself (learnt clauses, enumeration blocking
/// clauses); the compilation it was loaded from is never touched and can
/// load any number of further solvers.
#[derive(Debug, Default)]
pub struct Solver {
    /// The flat clause database: originals and learnts live side by side
    /// in one `u32` slab, addressed by word-offset crefs (see
    /// [`ClauseArena`]).
    ca: ClauseArena,
    /// CRefs of the live original (non-learnt) clauses.
    local_clauses: Vec<u32>,
    /// CRefs of the live learnt clauses.
    learnt_refs: Vec<u32>,
    /// Live learnt count per retention tier (indexed by `TIER_*`).
    n_tier: [usize; 3],
    /// Learnts (own and imported) queued for the next level-0 subsumption
    /// pass.
    subsume_queue: Vec<u32>,
    /// Trail length after the last `simplify`; skipping the pass while it
    /// is unchanged is what makes the cadence cheap.
    simp_db_assigns: usize,
    /// Propagation count below which the next `simplify` is deferred
    /// (classic minisat `simpDB_props` pacing).
    simp_db_props: u64,
    /// Level-0 inprocessing on/off (see [`Solver::set_inprocessing`]).
    inprocess: bool,
    /// Tiered learnt retention on/off (see
    /// [`Solver::set_tiered_retention`]).
    tiered: bool,
    watches: Vec<Vec<Watcher>>,
    /// The current assignment, indexed by [`Lit::code`]: a literal's value
    /// is one load, and assigning a variable writes both of its literals.
    value: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    heap: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    seen: Vec<bool>,
    /// The last satisfying assignment, indexed like `value`.
    model: Vec<LBool>,
    stats: SolverStats,
    max_learnts: f64,
    /// Variables of the loaded compilation (`usize::MAX` for a solver
    /// built from scratch). Only clauses over these travel through an
    /// exchange: a variable allocated after loading is private to this
    /// solver and would alias an unrelated one at a peer.
    attached_vars: usize,
    /// Unit clauses of the loaded compilation. They are enqueued at level
    /// 0 rather than stored, and [`Solver::num_clauses`] counts them.
    attached_units: usize,
    /// Local crefs of clauses learnt since the last exchange point.
    fresh_learnts: Vec<u32>,
    /// Unit clauses learnt since the last exchange point (units never get
    /// a cref; they are enqueued directly).
    fresh_units: Vec<Lit>,
    /// Scratch for LBD computation (level → generation stamp).
    lbd_seen: Vec<u64>,
    lbd_gen: u64,
    /// The local level of the two-level decision domain: the declared
    /// roots' variables, rebuilt by [`Solver::declare_roots`] when
    /// `use_domain` is set.
    domain: DecisionDomain,
    /// Whether [`Solver::declare_roots`] builds a decision domain and
    /// solves branch on it first (see [`Solver::set_domain_enabled`]).
    use_domain: bool,
    /// Whether the *current* solve consults the local domain — set on
    /// entry to `solve_budgeted`/`solve_limited`, cleared on exit, so the
    /// restriction is per-query and costs one flag check per decision.
    domain_active: bool,
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnts: LEARNT_BUDGET_INIT,
            // usize::MAX ≠ any trail length, so the first simplify runs.
            simp_db_assigns: usize::MAX,
            inprocess: true,
            tiered: true,
            attached_vars: usize::MAX,
            ..Solver::default()
        }
    }

    /// Creates a solver loaded with a pre-compiled formula.
    ///
    /// The formula's variables are allocated, its clauses are copied in
    /// compile order into the solver's own arena (sized exactly, one slab
    /// copy per clause) and each watches its first two literals, and its
    /// unit clauses are enqueued and propagated. `cnf` itself is only
    /// read, so one compilation can load every cube worker of a query.
    pub fn attach_shared(cnf: &SharedCnf) -> Solver {
        let mut s = Solver::new();
        for _ in 0..cnf.num_vars() {
            s.new_var();
        }
        s.attached_vars = cnf.num_vars();
        s.attached_units = cnf.units().len();
        let words = ClauseArena::words_for(cnf.num_clauses(), cnf.num_lits());
        s.ca = ClauseArena::with_capacity(words);
        s.local_clauses.reserve_exact(cnf.num_clauses());
        for i in 0..cnf.num_clauses() {
            s.attach_new_clause(cnf.clause(i), false);
        }
        s.ok = cnf.is_ok();
        if s.ok {
            for &u in cnf.units() {
                match s.lit_value(u) {
                    LBool::True => {}
                    LBool::False => {
                        s.ok = false;
                        break;
                    }
                    LBool::Undef => s.unchecked_enqueue(u, None),
                }
            }
            if s.ok && s.propagate().is_some() {
                s.ok = false;
            }
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.value.push(LBool::Undef);
        self.value.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v.index(), &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of original (non-learnt) clauses in the database, plus the
    /// loaded compilation's unit clauses. Each loaded clause counts once,
    /// until level-0 inprocessing purges it as satisfied.
    pub fn num_clauses(&self) -> usize {
        self.local_clauses.len() + self.attached_units
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.learnt_refs.len() as u64;
        s.learnts_core = self.n_tier[TIER_CORE as usize] as u64;
        s.learnts_mid = self.n_tier[TIER_MID as usize] as u64;
        s.learnts_local = self.n_tier[TIER_LOCAL as usize] as u64;
        s
    }

    /// The VSIDS activity of `v` (0.0 for unknown variables). Activities
    /// are what the portfolio's adaptive cube selection samples from a
    /// probing run.
    pub fn activity(&self, v: Var) -> f64 {
        self.activity.get(v.index()).copied().unwrap_or(0.0)
    }

    /// Gives `v` one initial VSIDS activity bump, so the first decisions
    /// favor it over never-bumped variables. Callers use this to steer
    /// branching into the cone their query actually constrains instead of
    /// plain variable-index order. A no-op once real conflict bumps have
    /// pushed `v` past the seed value; idempotent before that.
    pub fn warm_var(&mut self, v: Var) {
        let i = v.index();
        if i < self.activity.len() && self.activity[i] < self.var_inc {
            self.activity[i] = self.var_inc;
            self.heap.increased(i, &self.activity);
        }
    }

    /// Enables roots-first branching through the two-level decision
    /// domain (default off). When on, each [`Solver::declare_roots`] call
    /// rebuilds the local domain as the declared roots' variables, and every
    /// subsequent `solve_budgeted`/`solve_limited` branches on those
    /// variables first, falling back to the global VSIDS heap only once
    /// none is left unassigned. The restriction only reorders decisions,
    /// so results (and, downstream, enumerated suites) are unchanged.
    pub fn set_domain_enabled(&mut self, on: bool) {
        self.use_domain = on;
        if !on {
            self.domain.reset();
        }
    }

    /// Controls level-0 inprocessing (default on): between solves — at the
    /// classic `simpDB` cadence — the solver purges local clauses satisfied
    /// at level 0, strips false literals, and runs on-the-fly subsumption +
    /// self-subsuming resolution over recently landed learnts. Every step
    /// only deletes satisfied clauses or strengthens existing ones, so the
    /// model set (and downstream, enumerated suite bytes) is unchanged.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.inprocess = on;
    }

    /// Controls tiered learnt retention (default on): learnts are filed
    /// CORE/MID/LOCAL by LBD; a reduction keeps CORE clauses, demotes
    /// unused MID clauses, and deletes the lowest-activity half of the
    /// LOCAL tier. Off restores the legacy single-activity halving. Both
    /// modes trigger when the live learnt count outgrows its budget — a
    /// function of database size, not conflict cadence. Retention only
    /// decides which *redundant* clauses to keep, so either policy yields
    /// the same models.
    pub fn set_tiered_retention(&mut self, on: bool) {
        self.tiered = on;
    }

    /// Overrides the live-learnt budget that triggers `reduce_db` (tests
    /// and tuning).
    pub fn set_learnt_budget(&mut self, budget: usize) {
        self.max_learnts = budget as f64;
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// May be called at any time, including between `solve` calls; this is how
    /// blocking clauses are added during model enumeration. Returns `false` if
    /// the formula has become trivially unsatisfiable.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.add_clause_inner(lits.into_iter().collect(), false, 0)
    }

    /// [`Solver::add_clause`], but the clause enters the database as a
    /// learnt import: eligible for database reduction and never re-exported
    /// over an exchange. `lbd` is the sender's reported LBD (an upper
    /// bound; conflict analysis tightens it on use).
    fn import_clause(&mut self, lits: Vec<Lit>, lbd: u32) -> bool {
        self.add_clause_inner(lits, true, lbd)
    }

    fn add_clause_inner(&mut self, mut ls: Vec<Lit>, import: bool, lbd: u32) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        ls.sort();
        ls.dedup();
        // Detect tautologies and drop literals already false at level 0.
        let mut filtered = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: l and ¬l both present
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let len = filtered.len() as u32;
                let cref = self.attach_new_clause(&filtered, import);
                if import {
                    self.ca.set_imported(cref);
                    // The sender's LBD is an upper bound; level-0 stripping
                    // above can only have tightened the clause, and no
                    // clause is worse than its length.
                    self.set_learnt_lbd(cref, lbd.clamp(1, len));
                    if self.subsume_queue.len() < SUBSUME_QUEUE_CAP {
                        self.subsume_queue.push(cref);
                    }
                }
                true
            }
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. The assumptions hold only
    /// for this call; subsequent calls start fresh.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_exchanging(assumptions, &mut NoExchange)
    }

    /// [`Solver::solve_with_assumptions`] with learnt-clause exchange: at
    /// every restart boundary (and on entry/exit) the solver exports the
    /// clauses learnt since the last exchange point and imports whatever
    /// peers published. See [`ClauseExchange`] for the soundness contract.
    pub fn solve_exchanging(
        &mut self,
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
    ) -> SolveResult {
        match self.solve_budgeted(assumptions, exchange, &SolveBudget::unlimited()) {
            BudgetedResult::Done(r) => r,
            BudgetedResult::Interrupted(i) => {
                unreachable!("unlimited budget cannot interrupt, got {i:?}")
            }
        }
    }

    /// [`Solver::solve_exchanging`] under a [`SolveBudget`]: conflict and
    /// propagation limits, a wall-clock deadline, and a cooperative
    /// [`CancelToken`](crate::CancelToken) are all checked at restart
    /// boundaries, so a budgeted solve costs nothing extra per propagation
    /// and stops within one restart of its deadline. Returns
    /// [`BudgetedResult::Interrupted`] instead of looping forever.
    ///
    /// The conflict limit is honored exactly (restart budgets are clamped
    /// to the remainder); the other limits can overshoot by at most one
    /// restart's worth of work. On interrupt the solver state stays warm
    /// and clauses learnt so far are still exported, so the call can be
    /// repeated with a larger budget to resume the search.
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> BudgetedResult {
        // Arm the local decision domain for the duration of this solve:
        // O(1) on, O(1) off, and the domain itself (built at
        // `declare_roots`) survives for the next solve on this query.
        self.domain_active = self.use_domain && self.domain.len() > 0;
        let r = self.solve_budgeted_inner(assumptions, exchange, budget);
        self.domain_active = false;
        r
    }

    fn solve_budgeted_inner(
        &mut self,
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> BudgetedResult {
        self.model.clear();
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        let start_conflicts = self.stats.conflicts;
        let start_propagations = self.stats.propagations;
        self.export_fresh(exchange);
        self.import_pending(exchange);
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        // Level-0 inprocessing between solves, right after the previous
        // solve's blocking clause and this solve's imports landed.
        self.simplify();
        if !self.ok {
            return BudgetedResult::Done(SolveResult::Unsat);
        }
        let mut restart = 0u64;
        loop {
            let spent_conflicts = self.stats.conflicts - start_conflicts;
            let spent_propagations = self.stats.propagations - start_propagations;
            if let Some(i) = budget.exceeded(spent_conflicts, spent_propagations) {
                self.cancel_until(0);
                self.export_fresh(exchange);
                return BudgetedResult::Interrupted(i);
            }
            if let Some(fault) = &budget.fault {
                match fault.action_at(restart) {
                    Some(FaultAction::Panic) => {
                        panic!("injected fault: panic at restart {restart}")
                    }
                    Some(FaultAction::Interrupt) => {
                        self.cancel_until(0);
                        self.export_fresh(exchange);
                        return BudgetedResult::Interrupted(Interrupt::Injected);
                    }
                    Some(FaultAction::Slow(d)) => std::thread::sleep(d),
                    None => {}
                }
            }
            let search_budget =
                (RESTART_BASE * luby(restart)).min(budget.conflicts_left(spent_conflicts));
            match self.search(search_budget, assumptions) {
                Some(r) => {
                    self.cancel_until(0);
                    self.export_fresh(exchange);
                    return BudgetedResult::Done(r);
                }
                None => {
                    self.stats.restarts += 1;
                    restart += 1;
                    self.cancel_until(0);
                    self.export_fresh(exchange);
                    self.import_pending(exchange);
                    if !self.ok {
                        return BudgetedResult::Done(SolveResult::Unsat);
                    }
                    // Restart boundaries are level 0 with fresh imports in
                    // the subsumption queue; the cadence gate keeps this
                    // from firing every restart.
                    self.simplify();
                    if !self.ok {
                        return BudgetedResult::Done(SolveResult::Unsat);
                    }
                }
            }
        }
    }

    /// Runs CDCL search under a total conflict budget. Returns `None` when
    /// the budget ran out before a definitive answer.
    ///
    /// The solver state (learnt clauses, VSIDS activities, phases) is left
    /// warm, which is the point: the portfolio's adaptive cube selection
    /// probes a query with a small budget and reads the resulting
    /// activities via [`Solver::activity`].
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SolveResult> {
        self.domain_active = self.use_domain && self.domain.len() > 0;
        let r = self.solve_limited_inner(assumptions, max_conflicts);
        self.domain_active = false;
        r
    }

    fn solve_limited_inner(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SolveResult> {
        self.model.clear();
        if !self.ok {
            return Some(SolveResult::Unsat);
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart = 0u64;
        loop {
            let spent = self.stats.conflicts - start_conflicts;
            if spent >= max_conflicts {
                self.cancel_until(0);
                return None;
            }
            let budget = (RESTART_BASE * luby(restart)).min(max_conflicts - spent);
            match self.search(budget, assumptions) {
                Some(r) => {
                    self.cancel_until(0);
                    return Some(r);
                }
                None => {
                    self.stats.restarts += 1;
                    restart += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// The value of `v` in the most recent satisfying assignment, or `None`
    /// if the last solve was unsatisfiable (or never happened, or the variable
    /// was created afterwards).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(Lit::pos(v).code()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent satisfying assignment.
    pub fn lit_model_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.value[l.code()]
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// `true` while `v` is unassigned.
    #[inline]
    fn var_undef(&self, v: usize) -> bool {
        self.value[2 * v] == LBool::Undef
    }

    fn attach_new_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.ca.alloc(lits, learnt);
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.learnt_refs.push(cref);
            // Filed LOCAL until the caller supplies a real LBD
            // (`set_learnt_lbd`), so the tier counters always balance.
            self.ca.set_tier(cref, TIER_LOCAL);
            self.n_tier[TIER_LOCAL as usize] += 1;
        } else {
            self.local_clauses.push(cref);
        }
        cref
    }

    /// Records a learnt clause's LBD and refiles it in the matching
    /// retention tier.
    fn set_learnt_lbd(&mut self, cref: u32, lbd: u32) {
        self.ca.set_lbd(cref, lbd);
        self.move_tier(cref, tier_for_lbd(lbd));
    }

    fn move_tier(&mut self, cref: u32, tier: u32) {
        let old = self.ca.tier(cref);
        if old != tier {
            self.n_tier[old as usize] -= 1;
            self.n_tier[tier as usize] += 1;
            self.ca.set_tier(cref, tier);
        }
    }

    /// Declares the roots a query is about to solve under. With
    /// roots-first branching enabled ([`Solver::set_domain_enabled`]) this
    /// rebuilds the local decision domain as exactly the declared roots'
    /// variables, replacing whatever a previous declaration built;
    /// otherwise it is a no-op. Sound at any point: the domain only
    /// reorders decisions.
    pub fn declare_roots<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        if !self.use_domain {
            return;
        }
        // Membership is generation-stamped, so replacing the previous
        // query's domain is O(roots), not O(vars). Members are queued in
        // reverse declaration order: among equal activities the heap
        // decides the last-declared roots first.
        let n = self.num_vars();
        self.domain.reset();
        self.domain.reserve_keys(n);
        let members: Vec<usize> = lits
            .into_iter()
            .map(|l| l.var().index())
            .filter(|&v| v < n && self.domain.add(v))
            .collect();
        for v in members.into_iter().rev() {
            if self.var_undef(v) {
                self.domain.enqueue(v, &self.activity);
            }
        }
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.value[l.code()] = LBool::True;
        self.value[(!l).code()] = LBool::False;
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must be inspected: ¬p just became false.
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                // Deletion detaches watchers eagerly, so every watcher
                // reaching this point is live.
                let cref = w.cref;
                debug_assert!(!self.ca.is_deleted(cref));
                // Normalize so the false literal is at index 1.
                if self.ca.lit(cref, 0) == false_lit {
                    self.ca.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.ca.lit(cref, 1), false_lit);
                let first = self.ca.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut found = None;
                for k in 2..self.ca.len(cref) {
                    if self.lit_value(self.ca.lit(cref, k)) != LBool::False {
                        found = Some(k);
                        break;
                    }
                }
                if let Some(k) = found {
                    let q = self.ca.lit(cref, k);
                    self.ca.swap_lits(cref, 1, k);
                    self.watches[q.code()].push(Watcher {
                        cref,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue;
                }
                // No replacement: clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore the remaining watchers and bail.
                    self.qhead = self.trail.len();
                    self.watches[false_lit.code()] = ws;
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.polarity[v] = l.is_positive();
            self.value[l.code()] = LBool::Undef;
            self.value[(!l).code()] = LBool::Undef;
            self.reason[v] = None;
            self.heap.insert(v, &self.activity);
            // Domain members become decidable locally again (no-op for
            // non-members and while no domain is built).
            self.domain.enqueue(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target);
        self.qhead = lim;
    }

    fn var_bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
            self.heap.rescaled();
        }
        self.heap.increased(v, &self.activity);
        self.domain.increased(v, &self.activity);
    }

    fn clause_bump(&mut self, cref: u32) {
        let a = self.ca.activity(cref) + self.cla_inc as f32;
        self.ca.set_activity(cref, a);
        if a as f64 > RESCALE_LIMIT_CLA {
            for i in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[i];
                let scaled = self.ca.activity(c) * (1.0 / RESCALE_LIMIT_CLA) as f32;
                self.ca.set_activity(c, scaled);
            }
            self.cla_inc *= 1.0 / RESCALE_LIMIT_CLA;
        }
    }

    /// Recomputes a clause's LBD from the current assignment levels. Only
    /// meaningful while every literal of the clause is assigned — true for
    /// any clause expanded during conflict analysis. Level-0 literals are
    /// skipped: inprocessing is entitled to strip them.
    fn clause_lbd_now(&mut self, cref: u32) -> u32 {
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for j in 0..self.ca.len(cref) {
            let lev = self.level[self.ca.lit(cref, j).var().index()] as usize;
            if lev == 0 {
                continue;
            }
            if lev >= self.lbd_seen.len() {
                self.lbd_seen.resize(lev + 1, 0);
            }
            if self.lbd_seen[lev] != self.lbd_gen {
                self.lbd_seen[lev] = self.lbd_gen;
                lbd += 1;
            }
        }
        lbd.max(1)
    }

    /// First-UIP conflict analysis with recursive clause minimization.
    /// Returns the learnt clause (asserting literal first), the backtrack
    /// level, and the clause's LBD.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let mut to_clear: Vec<usize> = Vec::new();
        let dl = self.decision_level() as u32;

        loop {
            if self.ca.is_learnt(confl) {
                self.clause_bump(confl);
                // MID-tier probation: a use between two reductions is what
                // keeps a MID clause from demoting.
                self.ca.set_used(confl, true);
                // Glucose-style tightening: a clause showing up in conflicts
                // with fewer distinct levels than at learn time is more
                // valuable than its stored LBD claims — refile it.
                let stored = self.ca.lbd(confl);
                if stored > CORE_LBD {
                    let fresh = self.clause_lbd_now(confl);
                    if fresh < stored {
                        self.set_learnt_lbd(confl, fresh);
                    }
                }
            }
            for j in 0..self.ca.len(confl) {
                let q = self.ca.lit(confl, j);
                if p == Some(q) {
                    continue; // the literal this clause propagated
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.var_bump(v);
                    if self.level[v] >= dl {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next implication-graph node to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
        }
        learnt[0] = !p.expect("1UIP exists");

        // Recursive minimization: drop every literal the implication graph
        // derives from the clause's other literals and level-0 facts.
        let abstract_levels = learnt[1..]
            .iter()
            .fold(0u32, |acc, l| acc | self.abstract_level(l.var().index()));
        let mut stack = Vec::new();
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()].is_none()
                || !self.lit_redundant(l, abstract_levels, &mut to_clear, &mut stack)
            {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);
        self.stats.learnt_literals += learnt.len() as u64;

        // Backtrack level: highest level among the non-asserting literals.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };

        // LBD: distinct decision levels among the learnt literals.
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for &l in &learnt {
            let lev = self.level[l.var().index()] as usize;
            if lev >= self.lbd_seen.len() {
                self.lbd_seen.resize(lev + 1, 0);
            }
            if self.lbd_seen[lev] != self.lbd_gen {
                self.lbd_seen[lev] = self.lbd_gen;
                lbd += 1;
            }
        }

        for v in to_clear {
            self.seen[v] = false;
        }
        (learnt, bt, lbd)
    }

    /// One bit per decision level (modulo 32): a reason walk can only
    /// succeed through levels the learnt clause already has a literal on,
    /// so `lit_redundant` stops at once on any other level.
    #[inline]
    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// MiniSat's `litRedundant`: `true` when every path back from the
    /// implied literal `p` through reason clauses ends at a `seen` literal
    /// (one of the learnt clause's, or one proven redundant before) or at
    /// a level-0 fact, so the clause without `p` is still a resolvent.
    /// The walk is a DFS over reasons. Variables it proves redundant stay
    /// `seen` (recorded in `to_clear`) and answer later queries in one
    /// step; on failure the marks this call set are undone. `stack` is
    /// scratch space, shared across the calls of one analysis.
    fn lit_redundant(
        &mut self,
        p: Lit,
        abstract_levels: u32,
        to_clear: &mut Vec<usize>,
        stack: &mut Vec<usize>,
    ) -> bool {
        let top = to_clear.len();
        stack.clear();
        stack.push(p.var().index());
        while let Some(v) = stack.pop() {
            let r = self.reason[v].expect("only implied literals are expanded");
            for k in 0..self.ca.len(r) {
                let u = self.ca.lit(r, k).var().index();
                if u == v || self.seen[u] || self.level[u] == 0 {
                    continue;
                }
                if self.reason[u].is_some() && self.abstract_level(u) & abstract_levels != 0 {
                    self.seen[u] = true;
                    stack.push(u);
                    to_clear.push(u);
                } else {
                    for &w in &to_clear[top..] {
                        self.seen[w] = false;
                    }
                    to_clear.truncate(top);
                    return false;
                }
            }
        }
        true
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // Two-level branching: while this solve has a live decision
        // domain, prefer the highest-activity variable of the declared
        // roots; only once they are all assigned fall through to the
        // global heap. Popping from the local heap leaves the variable in
        // the global heap (and vice versa) — the stale entry is skipped by
        // the `Undef` check when it surfaces.
        if self.domain_active {
            while let Some(v) = self.domain.pop(&self.activity) {
                if self.var_undef(v) {
                    self.stats.domain_decisions += 1;
                    return Some(Var(v as u32));
                }
            }
        }
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.var_undef(v) {
                return Some(Var(v as u32));
            }
        }
        None
    }

    /// Shrinks the learnt database. Tiered mode (default): CORE clauses
    /// (LBD ≤ 2) are immortal, MID clauses that sat out the whole period
    /// since the previous reduction demote to LOCAL, and the
    /// lowest-activity half of the LOCAL tier is deleted. Legacy mode
    /// ([`Solver::set_tiered_retention`] off) halves the whole database by
    /// activity. Either way only *redundant* clauses are deleted, so the
    /// model set is untouched.
    fn reduce_db(&mut self) {
        let mut pool: Vec<u32> = if self.tiered {
            for i in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[i];
                if self.ca.tier(c) == TIER_MID {
                    if self.ca.is_used(c) {
                        self.ca.set_used(c, false);
                    } else {
                        self.move_tier(c, TIER_LOCAL);
                    }
                }
            }
            self.learnt_refs
                .iter()
                .copied()
                .filter(|&c| {
                    self.ca.tier(c) == TIER_LOCAL && self.ca.len(c) > 2 && !self.is_locked(c)
                })
                .collect()
        } else {
            self.learnt_refs
                .iter()
                .copied()
                .filter(|&c| self.ca.len(c) > 2 && !self.is_locked(c))
                .collect()
        };
        pool.sort_by(|&a, &b| {
            self.ca
                .activity(a)
                .partial_cmp(&self.ca.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        pool.truncate(pool.len() / 2);
        self.remove_clauses(&pool);
        if self.ca.should_gc() {
            self.garbage_collect();
        }
    }

    fn is_locked(&self, cref: u32) -> bool {
        let first = self.ca.lit(cref, 0);
        self.lit_value(first) == LBool::True && self.reason[first.var().index()] == Some(cref)
    }

    /// Removes `cref`'s two watchers. Safe to call on an already-detached
    /// clause (the scans simply find nothing).
    fn detach_clause(&mut self, cref: u32) {
        for j in 0..2 {
            let l = self.ca.lit(cref, j);
            let ws = &mut self.watches[l.code()];
            if let Some(p) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(p);
            }
        }
    }

    /// Detaches and frees a batch of live local clauses. Staged: first
    /// mark and detach everything, then purge the cref index lists, then
    /// free the arena blocks — so free-list reuse can never hand a block
    /// to a new clause while a stale cref to it survives in any list.
    /// Callers guarantee no victim is locked (a reason clause).
    fn remove_clauses(&mut self, victims: &[u32]) {
        if victims.is_empty() {
            return;
        }
        for &c in victims {
            debug_assert!(!self.is_locked(c));
            self.detach_clause(c);
            if self.ca.is_learnt(c) {
                self.n_tier[self.ca.tier(c) as usize] -= 1;
            }
            self.ca.set_deleted(c);
        }
        let ca = &self.ca;
        self.learnt_refs.retain(|&c| !ca.is_deleted(c));
        self.local_clauses.retain(|&c| !ca.is_deleted(c));
        self.fresh_learnts.retain(|&c| !ca.is_deleted(c));
        self.subsume_queue.retain(|&c| !ca.is_deleted(c));
        for &c in victims {
            self.ca.free(c);
        }
    }

    /// Compacts the arena: copies every live clause into a fresh slab and
    /// rewrites all crefs — watchers, reasons, and the clause index lists
    /// — through the relocation forwarding pointers. Sound at any decision
    /// level: only addresses change, never content.
    fn garbage_collect(&mut self) {
        let before = self.ca.data_len();
        let mut to = ClauseArena::with_capacity(before - self.ca.wasted());
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = self.ca.reloc(w.cref, &mut to);
            }
        }
        for cr in self.reason.iter_mut().flatten() {
            *cr = self.ca.reloc(*cr, &mut to);
        }
        for c in self.local_clauses.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        for c in self.learnt_refs.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        for c in self.fresh_learnts.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        for c in self.subsume_queue.iter_mut() {
            *c = self.ca.reloc(*c, &mut to);
        }
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed_words += (before - to.data_len()) as u64;
        self.ca = to;
    }

    /// Level-0 inprocessing: purge satisfied clauses, strip false
    /// literals, run the queued subsumption pass, and compact the arena
    /// when it got wasteful. The satisfied-purge leg runs at the classic
    /// `simpDB_assigns`/`simpDB_props` cadence — it can only find work
    /// after new level-0 facts arrived — while the subsumption leg is
    /// driven by its queue of newly landed learnts, which fills
    /// regardless of the level-0 trail. Everything here only deletes
    /// satisfied clauses or strengthens implied ones, so the solver's
    /// model set — and downstream, the enumerated suite bytes — are
    /// untouched.
    fn simplify(&mut self) {
        if !self.ok || !self.inprocess || self.decision_level() != 0 {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        let cadence = self.trail.len() != self.simp_db_assigns
            && self.stats.propagations >= self.simp_db_props;
        if !cadence && self.subsume_queue.is_empty() {
            return;
        }
        // Level-0 assignments are permanent: conflict analysis never
        // expands their reasons, so the reason links can be dropped — which
        // is what makes their (locked) reason clauses removable.
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = None;
        }
        if cadence {
            self.remove_satisfied();
        }
        self.subsumption_pass();
        if self.ok && self.ca.should_gc() {
            self.garbage_collect();
        }
        if cadence {
            self.simp_db_assigns = self.trail.len();
            self.simp_db_props = self.stats.propagations + self.ca.live_lits() as u64;
        }
    }

    /// Drops clauses satisfied at level 0 and strips literals false at
    /// level 0 from the survivors. After a clean level-0 propagate a
    /// surviving clause's two watched literals are both unassigned (a false
    /// watch with a non-true partner would have propagated or conflicted),
    /// so false literals only sit at positions ≥ 2 and stripping never
    /// moves a watch.
    fn remove_satisfied(&mut self) {
        let mut victims: Vec<u32> = Vec::new();
        let n_learnt = self.learnt_refs.len();
        let n_total = n_learnt + self.local_clauses.len();
        for i in 0..n_total {
            let c = if i < n_learnt {
                self.learnt_refs[i]
            } else {
                self.local_clauses[i - n_learnt]
            };
            if self
                .ca
                .iter_lits(c)
                .any(|l| self.lit_value(l) == LBool::True)
            {
                victims.push(c);
            } else {
                self.strip_false_lits(c);
            }
        }
        self.stats.simplify_removed += victims.len() as u64;
        self.remove_clauses(&victims);
    }

    /// Removes literals false at level 0 from `cref` (positions ≥ 2 only —
    /// see [`Solver::remove_satisfied`] for why the watches are clean).
    fn strip_false_lits(&mut self, cref: u32) {
        let mut j = 2;
        while j < self.ca.len(cref) {
            let l = self.ca.lit(cref, j);
            if self.lit_value(l) == LBool::False {
                self.ca.remove_lit(cref, j);
                self.stats.strengthened += 1;
            } else {
                j += 1;
            }
        }
    }

    /// Backward subsumption + self-subsuming resolution over the clauses
    /// learnt (or imported) since the last pass. Candidates and victims
    /// are all learnt clauses — redundant by construction — so deleting a
    /// subsumed one or strengthening one by resolution only prunes; the
    /// original formula and its model set are untouched.
    fn subsumption_pass(&mut self) {
        let queue = std::mem::take(&mut self.subsume_queue);
        if queue.is_empty() {
            return;
        }
        // The pass is scoped to this batch of freshly landed clauses —
        // both the subsuming and the subsumed side. A clause that just
        // arrived has no embedding in the ongoing search, so deduplicating
        // and strengthening *within* the batch (bus imports arrive in
        // bursts full of near-duplicates) is pure savings; deleting or
        // rewriting an *established* learnt, although equally sound, rips
        // out structure the search already leans on. Established clauses
        // are retired by the retention policy (`reduce_db`) and the
        // satisfied-purge leg instead.
        //
        // Occurrence lists (by variable, complement-insensitive) over the
        // batch. Entries go stale as the pass deletes and strengthens;
        // `is_deleted` and the literal re-check below make stale entries
        // harmless.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars()];
        for &c in &queue {
            if self.ca.is_deleted(c) {
                continue;
            }
            for l in self.ca.iter_lits(c) {
                occ[l.var().index()].push(c);
            }
        }
        // Literal stamps for the O(|C| + |D|) subset test.
        let mut stamp: Vec<u64> = vec![0; self.value.len()];
        let mut gen: u64 = 0;
        for &c in &queue {
            if !self.ok {
                break;
            }
            if self.ca.is_deleted(c) {
                continue;
            }
            let c_len = self.ca.len(c);
            // Scan the occurrence list of C's rarest variable.
            let best = self
                .ca
                .iter_lits(c)
                .map(|l| l.var().index())
                .min_by_key(|&v| occ[v].len())
                .expect("clauses are never empty");
            for &d in &occ[best] {
                if d == c || self.ca.is_deleted(d) || self.ca.is_deleted(c) {
                    continue;
                }
                if self.ca.len(d) < c_len {
                    continue;
                }
                // Stamp D's literals, then walk C: every literal of C must
                // appear in D, with at most one appearing complemented.
                gen += 1;
                for l in self.ca.iter_lits(d) {
                    stamp[l.code()] = gen;
                }
                let mut flipped: Option<Lit> = None;
                let mut subset = true;
                for l in self.ca.iter_lits(c) {
                    if stamp[l.code()] == gen {
                        continue;
                    }
                    if stamp[(!l).code()] == gen && flipped.is_none() {
                        flipped = Some(!l);
                        continue;
                    }
                    subset = false;
                    break;
                }
                if !subset {
                    continue;
                }
                match flipped {
                    None => {
                        // C ⊆ D: D is redundant.
                        self.stats.subsumed += 1;
                        self.remove_clauses(&[d]);
                    }
                    Some(fl) => {
                        // Self-subsuming resolution: C ⊗ D on fl's variable
                        // yields D \ {fl} — strengthen D in place.
                        self.strengthen_clause(d, fl);
                        if !self.ok {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Removes literal `l` from live clause `cref` (the resolvent of a
    /// self-subsuming resolution), re-establishing the watch invariants
    /// against the current level-0 trail: the shrunken clause may have
    /// become satisfied, unit, or even empty through units enqueued earlier
    /// in the same pass.
    fn strengthen_clause(&mut self, cref: u32, l: Lit) {
        debug_assert_eq!(self.decision_level(), 0);
        self.stats.strengthened += 1;
        self.detach_clause(cref);
        let pos = self
            .ca
            .iter_lits(cref)
            .position(|q| q == l)
            .expect("strengthened literal must be present");
        if self.ca.len(cref) == 2 {
            let unit = self.ca.lit(cref, 1 - pos);
            self.remove_clauses(&[cref]);
            self.settle_unit(unit);
            return;
        }
        self.ca.remove_lit(cref, pos);
        let mut satisfied = false;
        let mut free = [0usize; 2];
        let mut n_free = 0usize;
        for j in 0..self.ca.len(cref) {
            match self.lit_value(self.ca.lit(cref, j)) {
                LBool::True => {
                    satisfied = true;
                    break;
                }
                LBool::False => {}
                LBool::Undef => {
                    if n_free < 2 {
                        free[n_free] = j;
                    }
                    n_free += 1;
                }
            }
        }
        if satisfied {
            self.stats.simplify_removed += 1;
            self.remove_clauses(&[cref]);
            return;
        }
        match n_free {
            0 => {
                self.ok = false;
                self.remove_clauses(&[cref]);
            }
            1 => {
                let unit = self.ca.lit(cref, free[0]);
                self.remove_clauses(&[cref]);
                self.settle_unit(unit);
            }
            _ => {
                // The two free positions come out of one ascending scan
                // (free[1] > free[0]), so the first swap cannot displace
                // the second's literal.
                self.ca.swap_lits(cref, 0, free[0]);
                self.ca.swap_lits(cref, 1, free[1]);
                let l0 = self.ca.lit(cref, 0);
                let l1 = self.ca.lit(cref, 1);
                self.watches[l0.code()].push(Watcher { cref, blocker: l1 });
                self.watches[l1.code()].push(Watcher { cref, blocker: l0 });
            }
        }
    }

    /// Records a unit clause derived at level 0 by inprocessing: exported
    /// like any learnt unit, enqueued, and propagated.
    fn settle_unit(&mut self, l: Lit) {
        self.fresh_units.push(l);
        match self.lit_value(l) {
            LBool::True => {}
            LBool::False => self.ok = false,
            LBool::Undef => {
                self.unchecked_enqueue(l, None);
                if self.propagate().is_some() {
                    self.ok = false;
                } else {
                    // The propagation recorded fresh level-0 reasons; drop
                    // them so the rest of the pass can still delete any
                    // clause (same argument as in `simplify`).
                    for i in 0..self.trail.len() {
                        self.reason[self.trail[i].var().index()] = None;
                    }
                }
            }
        }
    }

    /// Exports the clauses learnt since the last exchange point.
    ///
    /// On a loaded solver, clauses mentioning any solver-local variable
    /// (one allocated after the compilation's, e.g. a demand-translated
    /// Tseitin gate) are withheld: local indices are private to this
    /// solver and would alias unrelated variables at a peer.
    fn export_fresh(&mut self, exchange: &mut dyn ClauseExchange) {
        let exportable = self.attached_vars;
        for l in std::mem::take(&mut self.fresh_units) {
            if l.var().index() < exportable {
                exchange.export(&[l], 1);
            }
        }
        for cref in std::mem::take(&mut self.fresh_learnts) {
            // Deleted clauses were already purged from `fresh_learnts` by
            // `remove_clauses`; only provenance filters remain.
            if self.ca.is_imported(cref)
                || self
                    .ca
                    .iter_lits(cref)
                    .any(|l| l.var().index() >= exportable)
            {
                continue;
            }
            let lits = self.ca.copy_lits(cref);
            exchange.export(&lits, self.ca.lbd(cref));
        }
    }

    /// Imports pending peer clauses. Must be called at decision level 0.
    fn import_pending(&mut self, exchange: &mut dyn ClauseExchange) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut buf = Vec::new();
        exchange.fetch(&mut buf);
        for (lits, lbd) in buf {
            if !self.ok {
                break;
            }
            self.import_clause(lits, lbd);
        }
    }

    /// Runs CDCL search for up to `budget` conflicts.
    ///
    /// Returns `Some(result)` on a definitive answer, `None` when the conflict
    /// budget was exhausted (caller restarts).
    fn search(&mut self, budget: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                if self.decision_level() <= assumptions.len() {
                    // Conflict among the assumptions themselves.
                    return Some(SolveResult::Unsat);
                }
                // The backjump may land below the assumption levels (a
                // learnt clause that no later assumption took part in);
                // the decision step below re-establishes the assumptions
                // one level at a time before branching resumes.
                let (learnt, bt, lbd) = self.analyze(confl);
                self.cancel_until(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    // A learnt unit is a resolvent of database clauses, so
                    // it is exportable like any other learnt clause.
                    self.fresh_units.push(asserting);
                    if self.decision_level() == 0 {
                        if self.lit_value(asserting) == LBool::False {
                            self.ok = false;
                            return Some(SolveResult::Unsat);
                        }
                        if self.lit_value(asserting) == LBool::Undef {
                            self.unchecked_enqueue(asserting, None);
                        }
                    } else {
                        // Backtracked to an assumption level with a unit
                        // learnt clause: record it at level 0 next restart.
                        if self.lit_value(asserting) == LBool::Undef {
                            self.unchecked_enqueue(asserting, None);
                        } else if self.lit_value(asserting) == LBool::False {
                            return Some(SolveResult::Unsat);
                        }
                    }
                } else {
                    let cref = self.attach_new_clause(&learnt, true);
                    self.set_learnt_lbd(cref, lbd.max(1));
                    self.fresh_learnts.push(cref);
                    if self.subsume_queue.len() < SUBSUME_QUEUE_CAP {
                        self.subsume_queue.push(cref);
                    }
                    self.unchecked_enqueue(self.ca.lit(cref, 0), Some(cref));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                // Size-triggered reduction: fire when the live learnt
                // count outgrows its budget, however many conflicts that
                // takes (the budget growth guarantees forward progress even
                // when most of the database is binary or locked). Both
                // retention modes share the trigger — they differ only in
                // *which* clauses a reduction keeps — so a small database
                // is never pruned: on this workload learnts prune
                // enumeration hard, and early deletion costs more
                // propagations than the clauses' upkeep.
                if self.learnt_refs.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= LEARNT_BUDGET_GROWTH;
                }
            } else {
                if conflicts >= budget {
                    return None; // restart
                }
                // Establish assumptions one level at a time.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.model = self.value.clone();
                        return Some(SolveResult::Sat);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}
#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, v: &mut Vec<Var>, i: usize, pos: bool) -> Lit {
        while v.len() <= i {
            v.push(s.new_var());
        }
        Lit::new(v[i], pos)
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause([Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause([Lit::pos(vs[0])]);
        assert!(s.solve().is_sat());
        for &v in &vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause([Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_enumeration_with_blocking_clauses() {
        // x ∨ y has exactly 3 models.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x), Lit::pos(y)]);
        let mut models = Vec::new();
        while s.solve().is_sat() {
            let mx = s.value(x).unwrap();
            let my = s.value(y).unwrap();
            models.push((mx, my));
            s.add_clause([Lit::new(x, !mx), Lit::new(y, !my)]);
        }
        models.sort();
        assert_eq!(models, vec![(false, true), (true, false), (true, true)]);
    }

    #[test]
    fn assumptions_are_transient() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x), Lit::pos(y)]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(x), Lit::neg(y)]),
            SolveResult::Unsat
        );
        // The assumptions must not persist.
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[Lit::neg(x)]).is_sat());
        assert_eq!(s.value(y), Some(true));
    }

    #[test]
    fn tautology_and_duplicate_literals() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        assert!(s.add_clause([Lit::pos(x), Lit::neg(x)])); // tautology dropped
        assert!(s.add_clause([Lit::pos(y), Lit::pos(y)])); // dedup to unit
        assert!(s.solve().is_sat());
        assert_eq!(s.value(y), Some(true));
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_is_sticky_but_clause_add_reports_it() {
        let mut s = Solver::new();
        let x = s.new_var();
        s.add_clause([Lit::pos(x)]);
        s.add_clause([Lit::neg(x)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.add_clause([Lit::pos(x)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn at_most_one_chain() {
        // Exactly-one over 8 variables, 8 models.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        s.add_clause(vs.iter().map(|&v| Lit::pos(v)));
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                s.add_clause([Lit::neg(vs[i]), Lit::neg(vs[j])]);
            }
        }
        let mut count = 0;
        while s.solve().is_sat() {
            count += 1;
            let block: Vec<Lit> = vs
                .iter()
                .map(|&v| Lit::new(v, !s.value(v).unwrap()))
                .collect();
            s.add_clause(block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn graph_coloring_triangle() {
        // Triangle 2-colorable: UNSAT. Triangle 3-colorable: SAT.
        for (colors, expect_sat) in [(2usize, false), (3usize, true)] {
            let mut s = Solver::new();
            let v: Vec<Vec<Var>> = (0..3)
                .map(|_| (0..colors).map(|_| s.new_var()).collect())
                .collect();
            for node in &v {
                s.add_clause(node.iter().map(|&x| Lit::pos(x)));
            }
            for (a, b) in [(0, 1), (1, 2), (0, 2)] {
                for c in 0..colors {
                    s.add_clause([Lit::neg(v[a][c]), Lit::neg(v[b][c])]);
                }
            }
            assert_eq!(s.solve().is_sat(), expect_sat, "colors={colors}");
        }
    }

    #[test]
    fn solver_is_send() {
        // The parallel synthesis engine gives each worker thread a private
        // Solver; every field must stay Send (no Rc, no raw pointers).
        fn assert_send<T: Send>() {}
        assert_send::<Solver>();
        assert_send::<SolverStats>();
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let mut vars = Vec::new();
        for i in 0..6 {
            let a = lit(&mut s, &mut vars, i, true);
            let b = lit(&mut s, &mut vars, (i + 1) % 6, false);
            s.add_clause([a, b]);
        }
        s.solve();
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    /// Cross-check the CDCL solver against brute force on many small random
    /// formulas. This is the key correctness test for the solver.
    #[test]
    fn random_formulas_match_brute_force() {
        // Simple deterministic LCG so the test needs no external crates here.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..300 {
            let n_vars = 3 + (next() % 6) as usize; // 3..8
            let n_clauses = 2 + (next() % 20) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..n_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(((next() as usize) % n_vars, next() % 2 == 0));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << n_vars) {
                for c in &clauses {
                    if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            let vs: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
            for c in &clauses {
                s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
            }
            let got = s.solve().is_sat();
            assert_eq!(got, brute_sat, "round {round}: clauses {clauses:?}");
            if got {
                // The model must actually satisfy every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, pos)| s.value(vs[v]).unwrap() == pos),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }

    /// Records every exported clause and imports nothing.
    #[derive(Default)]
    struct Capture(Vec<Vec<Lit>>);

    impl ClauseExchange for Capture {
        fn export(&mut self, lits: &[Lit], _lbd: u32) {
            self.0.push(lits.to_vec());
        }
        fn fetch(&mut self, _out: &mut Vec<(Vec<Lit>, u32)>) {}
    }

    /// Minimization may only drop literals the formula makes redundant:
    /// on seeded random 3-SAT formulas, enumerated model by model under
    /// random assumptions, every learnt clause (exported, or still in the
    /// database) must hold in every model of the clauses added so far.
    #[test]
    fn minimized_learnt_clauses_are_implied_by_the_formula() {
        let mut state = 0x1357_9BDF_2468_ACE0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut checked = 0usize;
        for round in 0..150 {
            let n = 8 + (next() % 4) as usize; // 8..=11 vars
            let m = 4 * n + (next() as usize % n);
            let mut s = Solver::new();
            let vs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..m {
                let c: Vec<Lit> = (0..3)
                    .map(|_| Lit::new(vs[next() as usize % n], next() % 2 == 0))
                    .collect();
                s.add_clause(c.iter().copied());
                clauses.push(c);
            }
            let holds = |c: &[Lit], a: u32| {
                c.iter()
                    .any(|l| (a >> l.var().index() & 1 == 1) == l.is_positive())
            };
            // The formula's models; blocking a model removes exactly it.
            let mut models: Vec<u32> = (0..1u32 << n)
                .filter(|&a| clauses.iter().all(|c| holds(c, a)))
                .collect();
            let assumptions: Vec<Lit> = (0..next() % 3)
                .map(|_| Lit::new(vs[next() as usize % n], next() % 2 == 0))
                .collect();
            let mut cap = Capture::default();
            loop {
                let sat = s.solve_exchanging(&assumptions, &mut cap).is_sat();
                let mut learnts = std::mem::take(&mut cap.0);
                learnts.extend(s.learnt_refs.iter().map(|&c| s.ca.copy_lits(c)));
                for c in &learnts {
                    let bad = models.iter().find(|&&a| !holds(c, a));
                    assert!(bad.is_none(), "round {round}: learnt {c:?} not implied");
                    checked += 1;
                }
                if !sat {
                    break;
                }
                let a: u32 = (0..n)
                    .map(|i| u32::from(s.value(vs[i]) == Some(true)) << i)
                    .sum();
                models.retain(|&x| x != a);
                s.add_clause((0..n).map(|i| Lit::new(vs[i], a >> i & 1 == 0)));
            }
        }
        assert!(checked > 1000, "only {checked} learnt clauses checked");
    }

    /// The implication chain a → x → y at level 1, then b at level 2 with
    /// (¬b ∨ ¬y ∨ z) and (¬b ∨ ¬a ∨ ¬z) in conflict. The first-UIP clause
    /// is (¬b ∨ ¬a ∨ ¬y). A one-step check keeps ¬y: its reason (¬x ∨ y)
    /// mentions x, which is neither in the clause nor fixed at level 0.
    /// The recursive walk follows x back to a, which is in the clause, and
    /// drops ¬y.
    #[test]
    fn recursive_minimization_drops_what_one_step_keeps() {
        let mut s = Solver::new();
        let [a, x, y, b, z] = [(); 5].map(|_| s.new_var());
        s.add_clause([Lit::neg(a), Lit::pos(x)]);
        s.add_clause([Lit::neg(x), Lit::pos(y)]);
        s.add_clause([Lit::neg(b), Lit::neg(y), Lit::pos(z)]);
        s.add_clause([Lit::neg(b), Lit::neg(a), Lit::neg(z)]);
        let decide = |s: &mut Solver, l: Lit| {
            s.trail_lim.push(s.trail.len());
            s.unchecked_enqueue(l, None);
            s.propagate()
        };
        assert!(decide(&mut s, Lit::pos(a)).is_none());
        let confl = decide(&mut s, Lit::pos(b)).expect("b conflicts at level 2");
        // The one-step rule's view of ¬y: a reason literal outside the
        // clause, above level 0.
        let ry = s.reason[y.index()].expect("y is implied");
        let ry_lits = s.ca.copy_lits(ry);
        assert!(ry_lits.contains(&Lit::neg(x)));
        assert_eq!(s.level[x.index()], 1);
        let one_step_len = 3; // ¬b, ¬a, ¬y
        let (learnt, bt, lbd) = s.analyze(confl);
        assert_eq!(learnt, vec![Lit::neg(b), Lit::neg(a)]);
        assert!(learnt.len() < one_step_len);
        assert_eq!((bt, lbd), (1, 2));
        assert!(s.seen.iter().all(|&m| !m), "analysis leaves no marks");
        assert_eq!(s.stats.learnt_literals, 2);
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use crate::shared::CnfBuilder;

    /// A toy exchange endpoint: an unbounded in-memory pool with a read
    /// cursor, no filtering. The real bounded/filtered bus lives in
    /// `crates/portfolio`.
    #[derive(Default)]
    struct BufferExchange {
        pool: Vec<(Vec<Lit>, u32)>,
        cursor: usize,
    }

    impl ClauseExchange for BufferExchange {
        fn export(&mut self, lits: &[Lit], lbd: u32) {
            self.pool.push((lits.to_vec(), lbd));
        }
        fn fetch(&mut self, out: &mut Vec<(Vec<Lit>, u32)>) {
            out.extend(self.pool[self.cursor..].iter().cloned());
            self.cursor = self.pool.len();
        }
    }

    fn exactly_one(n: usize) -> (SharedCnf, Vec<Var>) {
        let mut b = CnfBuilder::new();
        let vs: Vec<Var> = (0..n).map(|_| b.new_var()).collect();
        b.add_clause(vs.iter().map(|&v| Lit::pos(v)));
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_clause([Lit::neg(vs[i]), Lit::neg(vs[j])]);
            }
        }
        (b.build(), vs)
    }

    /// Enumerates all models over `vs` (blocking each found model), using
    /// `exchange` for clause traffic. Returns the sorted model set.
    fn enumerate(
        s: &mut Solver,
        vs: &[Var],
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
    ) -> Vec<Vec<bool>> {
        let mut models = Vec::new();
        while s.solve_exchanging(assumptions, exchange).is_sat() {
            let m: Vec<bool> = vs.iter().map(|&v| s.value(v).unwrap()).collect();
            let block: Vec<Lit> = vs.iter().zip(&m).map(|(&v, &b)| Lit::new(v, !b)).collect();
            models.push(m);
            s.add_clause(block);
        }
        models.sort();
        models
    }

    #[test]
    fn attached_solver_matches_brute_force() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..200 {
            let n_vars = 3 + (next() % 6) as usize;
            let n_clauses = 2 + (next() % 20) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..n_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(((next() as usize) % n_vars, next() % 2 == 0));
                }
                clauses.push(c);
            }
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << n_vars) {
                for c in &clauses {
                    if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let mut b = CnfBuilder::new();
            let vs: Vec<Var> = (0..n_vars).map(|_| b.new_var()).collect();
            for c in &clauses {
                b.add_clause(c.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
            }
            let mut s = Solver::attach_shared(&b.build());
            let got = s.solve().is_sat();
            assert_eq!(got, brute_sat, "round {round}: clauses {clauses:?}");
            if got {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, pos)| s.value(vs[v]).unwrap() == pos),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_attached_solvers_enumerate_independently() {
        let (cnf, vs) = exactly_one(8);
        let mut a = Solver::attach_shared(&cnf);
        let mut bvr = Solver::attach_shared(&cnf);
        assert_eq!(a.num_clauses(), bvr.num_clauses());
        // Interleave the two enumerations: blocking clauses in one solver
        // must not leak into the other through the compilation they share.
        let mut count_a = 0;
        let mut count_b = 0;
        loop {
            let sa = a.solve().is_sat();
            let sb = bvr.solve().is_sat();
            assert_eq!(sa, sb);
            if !sa {
                break;
            }
            count_a += 1;
            count_b += 1;
            for s in [&mut a, &mut bvr] {
                let block: Vec<Lit> = vs
                    .iter()
                    .map(|&v| Lit::new(v, !s.value(v).unwrap()))
                    .collect();
                s.add_clause(block);
            }
        }
        assert_eq!(count_a, 8);
        assert_eq!(count_b, 8);
    }

    /// The satellite unit test: blocking-clause enumeration counts are
    /// unchanged when clause import is enabled. This mirrors the portfolio
    /// setup exactly: two workers attached to one compiled formula, cubes
    /// pinned on an observed variable, and the peer's traffic — learnt
    /// clauses *and* its blocking clauses — imported mid-enumeration.
    #[test]
    fn enumeration_count_unchanged_with_clause_import() {
        let (cnf, vs) = exactly_one(8);
        let pin = Lit::pos(vs[0]);

        // Cube A (v0 = true): enumerate, exporting learnt clauses and its
        // blocking clauses into the pool.
        let mut bus = BufferExchange::default();
        let mut a = Solver::attach_shared(&cnf);
        let mut a_models = Vec::new();
        while a.solve_exchanging(&[pin], &mut bus).is_sat() {
            let m: Vec<bool> = vs.iter().map(|&v| a.value(v).unwrap()).collect();
            let block: Vec<Lit> = vs.iter().zip(&m).map(|(&v, &b)| Lit::new(v, !b)).collect();
            // Every model in the other cube differs on the pinned observed
            // variable, so A's blocking clauses are satisfied there — the
            // worst-case import traffic for cube B.
            bus.export(&block, block.len() as u32);
            a_models.push(m);
            a.add_clause(block);
        }
        assert_eq!(a_models.len(), 1);

        // Cube B (v0 = false) with imports vs. a clean reference run.
        let mut b = Solver::attach_shared(&cnf);
        let with_import = enumerate(&mut b, &vs, &[!pin], &mut bus);
        let mut b_ref = Solver::attach_shared(&cnf);
        let without_import = enumerate(&mut b_ref, &vs, &[!pin], &mut NoExchange);
        assert_eq!(with_import.len(), 7);
        assert_eq!(with_import, without_import);
    }

    #[test]
    fn exchange_roundtrip_between_attached_solvers() {
        // An UNSAT core in the shared part: pigeonhole 4→3 plus extra vars.
        let mut bld = CnfBuilder::new();
        let p: Vec<Vec<Var>> = (0..4)
            .map(|_| (0..3).map(|_| bld.new_var()).collect())
            .collect();
        for row in &p {
            bld.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&v1, &v2) in row1.iter().zip(row2) {
                    bld.add_clause([Lit::neg(v1), Lit::neg(v2)]);
                }
            }
        }
        let cnf = bld.build();
        let mut bus = BufferExchange::default();
        let mut a = Solver::attach_shared(&cnf);
        assert_eq!(a.solve_exchanging(&[], &mut bus), SolveResult::Unsat);
        assert!(!bus.pool.is_empty(), "UNSAT proof should learn clauses");
        // A second solver importing A's clauses must agree.
        let mut b = Solver::attach_shared(&cnf);
        assert_eq!(b.solve_exchanging(&[], &mut bus), SolveResult::Unsat);
    }

    #[test]
    fn solve_limited_respects_budget_and_warms_activity() {
        let mut bld = CnfBuilder::new();
        let n = 7;
        let m = 6;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| bld.new_var()).collect())
            .collect();
        for row in &p {
            bld.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&v1, &v2) in row1.iter().zip(row2) {
                    bld.add_clause([Lit::neg(v1), Lit::neg(v2)]);
                }
            }
        }
        let cnf = bld.build();
        let mut s = Solver::attach_shared(&cnf);
        assert_eq!(s.solve_limited(&[], 3), None, "budget too small to finish");
        assert!(s.stats().conflicts >= 3);
        let warmed = p.iter().flatten().any(|&v| s.activity(v) > 0.0);
        assert!(warmed, "probing must leave VSIDS activity behind");
        // With an ample budget the limited solve is definitive.
        let mut s2 = Solver::attach_shared(&cnf);
        assert_eq!(s2.solve_limited(&[], u64::MAX), Some(SolveResult::Unsat));
    }

    /// Pigeonhole 7→6: hard enough that an unbudgeted solve needs many
    /// restarts, so budget checks at restart boundaries actually fire.
    fn hard_pigeonhole() -> SharedCnf {
        let mut bld = CnfBuilder::new();
        let n = 7;
        let m = 6;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| bld.new_var()).collect())
            .collect();
        for row in &p {
            bld.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&v1, &v2) in row1.iter().zip(row2) {
                    bld.add_clause([Lit::neg(v1), Lit::neg(v2)]);
                }
            }
        }
        bld.build()
    }

    #[test]
    fn conflict_budget_is_honored_exactly() {
        use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
        let mut s = Solver::attach_shared(&hard_pigeonhole());
        let r = s.solve_budgeted(&[], &mut NoExchange, &SolveBudget::conflicts(50));
        assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Conflicts));
        // The conflict limit clamps each restart's budget, so it is exact.
        assert_eq!(s.stats().conflicts, 50);
        // The solver state stays warm: resuming with no limit finishes.
        let resumed = s.solve_budgeted(&[], &mut NoExchange, &SolveBudget::unlimited());
        assert_eq!(resumed, BudgetedResult::Done(SolveResult::Unsat));
    }

    #[test]
    fn deadline_stops_within_one_restart() {
        use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
        let mut s = Solver::attach_shared(&hard_pigeonhole());
        let budget = SolveBudget {
            deadline: Some(std::time::Instant::now()),
            ..SolveBudget::default()
        };
        let r = s.solve_budgeted(&[], &mut NoExchange, &budget);
        assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Deadline));
        // An already-expired deadline trips at the first restart boundary,
        // before any search: zero conflicts spent.
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn cancel_token_interrupts_from_outside() {
        use crate::budget::{BudgetedResult, CancelToken, Interrupt, SolveBudget};
        let token = CancelToken::new();
        token.cancel();
        let mut s = Solver::attach_shared(&hard_pigeonhole());
        let budget = SolveBudget {
            cancel: Some(token),
            ..SolveBudget::default()
        };
        let r = s.solve_budgeted(&[], &mut NoExchange, &budget);
        assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn propagation_budget_interrupts() {
        use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
        let mut s = Solver::attach_shared(&hard_pigeonhole());
        let budget = SolveBudget {
            max_propagations: 1,
            ..SolveBudget::default()
        };
        let r = s.solve_budgeted(&[], &mut NoExchange, &budget);
        assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Propagations));
    }

    #[test]
    fn injected_faults_fire_at_restart_coordinates() {
        use crate::budget::{BudgetedResult, Interrupt, SolveBudget};
        use crate::fault::{FaultCtx, FaultPlan};
        let cnf = hard_pigeonhole();
        let plan = std::sync::Arc::new(FaultPlan::parse("q@0@0@1@interrupt").expect("plan parses"));
        let ctx = FaultCtx {
            plan: plan.clone(),
            query: std::sync::Arc::from("q"),
            cube: 0,
            attempt: 0,
        };
        let budget = SolveBudget {
            fault: Some(ctx),
            ..SolveBudget::default()
        };
        let mut s = Solver::attach_shared(&cnf);
        let r = s.solve_budgeted(&[], &mut NoExchange, &budget);
        assert_eq!(r, BudgetedResult::Interrupted(Interrupt::Injected));
        // The site armed restart 1, so exactly one restart ran first.
        assert_eq!(s.stats().restarts, 1);
        assert_eq!(plan.injections(), 1);

        // A panic site actually panics (the pool's catch_unwind recovers).
        let panic_plan =
            std::sync::Arc::new(FaultPlan::parse("q@*@*@0@panic").expect("plan parses"));
        let panic_budget = SolveBudget {
            fault: Some(FaultCtx {
                plan: panic_plan,
                query: std::sync::Arc::from("q"),
                cube: 0,
                attempt: 0,
            }),
            ..SolveBudget::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = Solver::attach_shared(&cnf);
            s.solve_budgeted(&[], &mut NoExchange, &panic_budget)
        }));
        assert!(caught.is_err(), "armed panic site must panic");
    }

    #[test]
    fn attach_propagates_shared_units() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        b.add_clause([Lit::pos(x)]);
        b.add_clause([Lit::neg(x), Lit::pos(y)]);
        b.add_clause([Lit::neg(y), Lit::pos(z)]);
        let mut s = Solver::attach_shared(&b.build());
        assert!(s.solve().is_sat());
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.value(y), Some(true));
        assert_eq!(s.value(z), Some(true));
    }

    #[test]
    fn attach_detects_contradictory_units() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        b.add_clause([Lit::pos(x)]);
        b.add_clause([Lit::neg(x)]);
        let mut s = Solver::attach_shared(&b.build());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn local_vars_and_clauses_extend_an_attached_solver() {
        let (cnf, vs) = exactly_one(4);
        let mut s = Solver::attach_shared(&cnf);
        // A local variable defined on top of shared ones: w ↔ v0 ∨ v1.
        let w = s.new_var();
        s.add_clause([Lit::neg(vs[0]), Lit::pos(w)]);
        s.add_clause([Lit::neg(vs[1]), Lit::pos(w)]);
        s.add_clause([Lit::pos(vs[0]), Lit::pos(vs[1]), Lit::neg(w)]);
        let mut with_w = 0;
        let mut total = 0;
        let all: Vec<Var> = vs.iter().copied().chain([w]).collect();
        while s.solve().is_sat() {
            total += 1;
            if s.value(w) == Some(true) {
                with_w += 1;
            }
            let block: Vec<Lit> = all
                .iter()
                .map(|&v| Lit::new(v, !s.value(v).unwrap()))
                .collect();
            s.add_clause(block);
        }
        assert_eq!(total, 4);
        assert_eq!(with_w, 2);
    }

    #[test]
    fn attach_arenas_with_units_and_empty_clauses() {
        // Units in the arena propagate at attach time.
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        b.add_clause([Lit::pos(x)]);
        b.add_clause([Lit::neg(x), Lit::pos(y)]);
        let mut s = Solver::attach_shared(&b.build());
        assert!(s.solve().is_sat());
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.value(y), Some(true));
        // An arena holding an empty clause attaches as already-unsat.
        let mut b = CnfBuilder::new();
        let z = b.new_var();
        b.add_clause([Lit::pos(z)]);
        b.add_clause([]);
        let cnf = b.build();
        assert!(!cnf.is_ok());
        let mut s = Solver::attach_shared(&cnf);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.add_clause([Lit::pos(z)]), "an unsat attach stays unsat");
    }

    #[test]
    fn loaded_solvers_leave_the_compilation_untouched() {
        // Each solver copies the compiled clauses into its own arena and
        // reorders them there while watching; the compilation itself
        // must come out of two full enumerations exactly as it went in.
        let (cnf, vs) = exactly_one(6);
        let snapshot = |cnf: &SharedCnf| {
            let clauses: Vec<Vec<Lit>> = (0..cnf.num_clauses())
                .map(|i| cnf.clause(i).to_vec())
                .collect();
            (clauses, cnf.units().to_vec(), cnf.fingerprint())
        };
        let before = snapshot(&cnf);
        let mut a = Solver::attach_shared(&cnf);
        let mut b = Solver::attach_shared(&cnf);
        assert_eq!(enumerate(&mut a, &vs, &[], &mut NoExchange).len(), 6);
        assert_eq!(enumerate(&mut b, &vs, &[], &mut NoExchange).len(), 6);
        assert_eq!(snapshot(&cnf), before);
    }

    #[test]
    fn num_clauses_counts_loaded_clauses_and_units_once() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        b.add_clause([Lit::pos(x)]);
        b.add_clause([Lit::pos(y), Lit::pos(z)]);
        b.add_clause([Lit::neg(y), Lit::neg(z)]);
        let cnf = b.build();
        let mut s = Solver::attach_shared(&cnf);
        assert_eq!(s.num_clauses(), cnf.num_clauses() + cnf.units().len());
        assert_eq!(s.num_clauses(), 3);
        // Clauses added after loading count once more each.
        s.add_clause([Lit::neg(x), Lit::pos(y), Lit::pos(z)]);
        assert_eq!(s.num_clauses(), 4);
    }

    #[test]
    fn backjump_below_the_assumptions_keeps_every_assumption() {
        // Under a1 (level 1) and a2 (level 2), deciding ¬x at level 3
        // propagates y and ¬y from the two clauses below. The learnt
        // clause (¬a1 ∨ x) leaves a2 out, so the backjump lands at level 1,
        // below the assumption levels; a2 must be re-established before
        // the model is reported.
        let mut s = Solver::new();
        let a1 = s.new_var();
        let a2 = s.new_var();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::neg(a1), Lit::pos(x), Lit::pos(y)]);
        s.add_clause([Lit::neg(a1), Lit::pos(x), Lit::neg(y)]);
        // Decide x first (its saved phase is false).
        s.warm_var(x);
        let assumptions = [Lit::pos(a1), Lit::pos(a2)];
        assert!(s.solve_with_assumptions(&assumptions).is_sat());
        assert_eq!(s.stats().conflicts, 1);
        let learnt: Vec<Vec<Lit>> = s.learnt_refs.iter().map(|&c| s.ca.copy_lits(c)).collect();
        assert_eq!(learnt, vec![vec![Lit::pos(x), Lit::neg(a1)]]);
        for l in assumptions {
            assert_eq!(s.lit_model_value(l), Some(true), "{l} must hold");
        }
        assert_eq!(s.value(x), Some(true));
    }

    // ----- roots-first branching -----

    /// An exactly-one(4) formula plus two Tseitin gates, `g0 := v0 ∨ v2`
    /// and `g1 := g0 ∨ v3`.
    fn gated_exactly_one() -> (SharedCnf, Vec<Var>, Var) {
        let mut b = CnfBuilder::new();
        let vs: Vec<Var> = (0..4).map(|_| b.new_var()).collect();
        b.add_clause(vs.iter().map(|&v| Lit::pos(v)));
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_clause([Lit::neg(vs[i]), Lit::neg(vs[j])]);
            }
        }
        let g0 = b.new_var();
        b.add_clause([Lit::neg(g0), Lit::pos(vs[0]), Lit::pos(vs[2])]);
        b.add_clause([Lit::pos(g0), Lit::neg(vs[0])]);
        b.add_clause([Lit::pos(g0), Lit::neg(vs[2])]);
        let g1 = b.new_var();
        b.add_clause([Lit::neg(g1), Lit::pos(g0), Lit::pos(vs[3])]);
        b.add_clause([Lit::pos(g1), Lit::neg(g0)]);
        b.add_clause([Lit::pos(g1), Lit::neg(vs[3])]);
        (b.build(), vs, g0)
    }

    /// The cone of `g0`, declared explicitly: the gate and its inputs.
    fn g0_cone(vs: &[Var], g0: Var) -> [Lit; 3] {
        [Lit::pos(g0), Lit::pos(vs[0]), Lit::pos(vs[2])]
    }

    #[test]
    fn decision_domain_branches_on_declared_cone_first() {
        let (cnf, vs, g0) = gated_exactly_one();
        let mut eager = Solver::attach_shared(&cnf);
        let me = enumerate(&mut eager, &vs, &[Lit::pos(g0)], &mut NoExchange);
        let mut s = Solver::attach_shared(&cnf);
        s.set_domain_enabled(true);
        s.declare_roots(g0_cone(&vs, g0));
        let md = enumerate(&mut s, &vs, &[Lit::pos(g0)], &mut NoExchange);
        assert_eq!(me, md, "the domain only reorders decisions");
        let st = s.stats();
        assert!(
            st.domain_decisions > 0,
            "decisions should be served from the declared cone"
        );
        assert!(st.domain_decisions <= st.decisions);
        // Default-off: a solver that never enables the domain reports 0.
        let mut plain = Solver::attach_shared(&cnf);
        let _ = enumerate(&mut plain, &vs, &[Lit::pos(g0)], &mut NoExchange);
        assert_eq!(plain.stats().domain_decisions, 0);
    }

    #[test]
    fn decision_domain_falls_back_to_global_heap_when_cone_exhausted() {
        // The declared cone is {g0, v0, v2}; a full model still needs v1
        // and v3, which only the global fallback can decide once the cone
        // is assigned. Deciding g0 false propagates ¬v0 and ¬v2, leaving
        // v1 ∨ v3 undetermined — so the SAT answer requires at least one
        // global (non-domain) decision.
        let (cnf, vs, g0) = gated_exactly_one();
        let mut s = Solver::attach_shared(&cnf);
        s.set_domain_enabled(true);
        s.declare_roots(g0_cone(&vs, g0));
        assert!(s.solve().is_sat());
        let st = s.stats();
        assert!(st.domain_decisions > 0, "local level used first");
        assert!(
            st.decisions > st.domain_decisions,
            "completing the model needs the global fallback"
        );
        // Disabling re-enables plain VSIDS: no further local decisions.
        s.set_domain_enabled(false);
        let before = s.stats().domain_decisions;
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().domain_decisions, before);
    }

    // ----- level-0 inprocessing, tiered retention, arena GC -----

    #[test]
    fn simplify_purges_clauses_satisfied_at_level_zero() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        s.add_clause([Lit::pos(x), Lit::pos(y)]);
        s.add_clause([Lit::pos(x), Lit::pos(z)]);
        assert_eq!(s.num_clauses(), 2);
        // The unit satisfies both clauses at level 0; the next solve's
        // inprocessing pass must purge them.
        s.add_clause([Lit::pos(x)]);
        assert!(s.solve().is_sat());
        assert!(s.stats().simplify_removed >= 2);
        assert_eq!(s.num_clauses(), 0);
        // The toggle restores the old keep-everything behavior.
        let mut off = Solver::new();
        off.set_inprocessing(false);
        let x = off.new_var();
        let y = off.new_var();
        off.add_clause([Lit::pos(x), Lit::pos(y)]);
        off.add_clause([Lit::pos(x)]);
        assert!(off.solve().is_sat());
        assert_eq!(off.stats().simplify_removed, 0);
        assert_eq!(off.num_clauses(), 1);
    }

    #[test]
    fn subsumption_deletes_and_strengthens_imported_learnts() {
        // Imports enter the database as learnts, so feeding crafted
        // clauses over an exchange exercises the subsumption pass
        // deterministically: (a ∨ b) subsumes (a ∨ b ∨ c) exactly, and
        // self-subsumes (¬a ∨ b ∨ d) down to (b ∨ d).
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var();
        let mut bus = BufferExchange::default();
        bus.pool.push((vec![Lit::pos(a), Lit::pos(b)], 2));
        bus.pool
            .push((vec![Lit::pos(a), Lit::pos(b), Lit::pos(c)], 3));
        bus.pool
            .push((vec![Lit::neg(a), Lit::pos(b), Lit::pos(d)], 3));
        assert!(s.solve_exchanging(&[], &mut bus).is_sat());
        let st = s.stats();
        assert!(st.subsumed >= 1, "exact subsumption must fire");
        assert!(st.strengthened >= 1, "self-subsuming resolution must fire");
    }

    #[test]
    fn tiered_retention_shrinks_pooled_solver_across_tasks() {
        // One long-lived solver on a hard query: the size-triggered reduce
        // must keep the live learnt count near the LOCAL budget instead of
        // growing without bound, and the tier counters must stay
        // consistent.
        let mut s = Solver::attach_shared(&hard_pigeonhole());
        s.set_learnt_budget(20);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.conflicts > 100, "pigeonhole 7→6 must be nontrivial");
        assert_eq!(
            st.learnts,
            st.learnts_core + st.learnts_mid + st.learnts_local,
            "tier counters must partition the live learnt set"
        );
        assert!(
            st.learnts < st.conflicts / 2,
            "retention must shed learnts: {} live of {} learned",
            st.learnts,
            st.conflicts
        );
    }

    #[test]
    fn arena_gc_fires_under_churn_and_preserves_results() {
        let mut s = Solver::attach_shared(&hard_pigeonhole());
        s.set_learnt_budget(10);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.gc_runs > 0, "churn at budget 10 must trigger arena GC");
        assert!(st.gc_reclaimed_words > 0);
    }

    #[test]
    fn toggles_preserve_enumerated_model_sets() {
        // The byte-identity bar, at solver scope: every combination of the
        // new toggles enumerates the identical model set, with and without
        // exchange traffic.
        let (cnf, vs) = exactly_one(8);
        let mut reference: Option<Vec<Vec<bool>>> = None;
        for inproc in [false, true] {
            for tiers in [false, true] {
                let mut s = Solver::attach_shared(&cnf);
                s.set_inprocessing(inproc);
                s.set_tiered_retention(tiers);
                s.set_learnt_budget(4);
                let mut bus = BufferExchange::default();
                let models = enumerate(&mut s, &vs, &[], &mut bus);
                assert_eq!(models.len(), 8);
                match &reference {
                    None => reference = Some(models),
                    Some(r) => assert_eq!(&models, r, "inproc={inproc} tiers={tiers} diverged"),
                }
            }
        }
    }

    #[test]
    fn imported_lbd_is_clamped_not_length() {
        // The satellite fix: an import's stored LBD is the sender's value
        // (clamped to [1, len]), not unconditionally the clause length.
        // Detect it through tier accounting: an LBD-2 import of length 4
        // must land in CORE, which length-based filing would put in MID.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        let mut bus = BufferExchange::default();
        bus.pool
            .push((vs.iter().map(|&v| Lit::pos(v)).collect(), 2));
        assert!(s.solve_exchanging(&[], &mut bus).is_sat());
        let st = s.stats();
        assert_eq!(st.learnts_core, 1, "sender LBD 2 files the import as CORE");
        assert_eq!(st.learnts_mid + st.learnts_local, 0);
    }
}
