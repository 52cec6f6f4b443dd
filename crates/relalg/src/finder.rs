//! CNF compilation (Tseitin) and instance enumeration.

use crate::circuit::{Bit, Circuit, Node};
use crate::compiled::CompiledCircuit;
use litsynth_sat::{
    BudgetedResult, ClauseExchange, Interrupt, Lit, NoExchange, SolveBudget, SolveResult, Solver,
    Var,
};

/// A satisfying assignment to the circuit inputs.
///
/// Inputs that never reached the solver (unconstrained) default to `false`,
/// which is always a legal completion.
#[derive(Clone, Debug)]
pub struct Instance {
    inputs: Vec<bool>,
}

impl Instance {
    /// The value of input `idx`.
    pub fn input(&self, idx: usize) -> bool {
        self.inputs.get(idx).copied().unwrap_or(false)
    }

    /// Evaluates an arbitrary circuit bit under this instance.
    pub fn eval(&self, c: &Circuit, bit: Bit) -> bool {
        let mut memo: Vec<Option<bool>> = vec![None; c.num_nodes()];
        self.eval_memo(c, bit, &mut memo)
    }

    /// Evaluates many bits, sharing the memo table.
    pub fn eval_many(&self, c: &Circuit, bits: &[Bit]) -> Vec<bool> {
        let mut memo: Vec<Option<bool>> = vec![None; c.num_nodes()];
        bits.iter()
            .map(|&b| self.eval_memo(c, b, &mut memo))
            .collect()
    }

    fn eval_memo(&self, c: &Circuit, bit: Bit, memo: &mut [Option<bool>]) -> bool {
        // Iterative DFS to avoid deep recursion on large circuits.
        let mut stack = vec![bit.node()];
        while let Some(&n) = stack.last() {
            if memo[n].is_some() {
                stack.pop();
                continue;
            }
            match c.node(n) {
                Node::ConstTrue => {
                    memo[n] = Some(true);
                    stack.pop();
                }
                Node::Input(i) => {
                    memo[n] = Some(self.input(i as usize));
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    match (memo[na], memo[nb]) {
                        (Some(va), Some(vb)) => {
                            let ra = va ^ a.is_negated();
                            let rb = vb ^ b.is_negated();
                            memo[n] = Some(ra && rb);
                            stack.pop();
                        }
                        (None, _) => stack.push(na),
                        (_, None) => stack.push(nb),
                    }
                }
            }
        }
        memo[bit.node()].expect("evaluated") ^ bit.is_negated()
    }
}

/// Translates circuit formulas to CNF and enumerates satisfying instances.
///
/// The typical enumeration loop is:
///
/// ```ignore
/// let mut finder = Finder::new(&circuit);
/// while let Some(inst) = finder.next_instance(&circuit, &asserts) {
///     /* extract a model instance */
///     finder.block(&circuit, &inst, &observable_bits);
/// }
/// ```
#[derive(Debug)]
pub struct Finder {
    solver: Solver,
    node_var: Vec<Option<Var>>,
    const_true: Option<Var>,
    input_of_var: Vec<Option<usize>>,
}

impl Finder {
    /// Creates a finder for (the current state of) `circuit`.
    ///
    /// The circuit may keep growing afterwards; translation is demand-driven.
    pub fn new(circuit: &Circuit) -> Finder {
        let _ = circuit;
        Finder {
            solver: Solver::new(),
            node_var: Vec::new(),
            const_true: None,
            input_of_var: Vec::new(),
        }
    }

    /// Creates a finder attached to a pre-compiled circuit.
    ///
    /// The solver copies the compiled CNF clauses into its own arena and
    /// the finder clones the node→variable maps, so a portfolio of workers
    /// pays the Tseitin transform once (see [`CompiledCircuit::compile`])
    /// and each attach is a flat copy; the compilation is only read. The
    /// finder behaves exactly like one built with [`Finder::new`]
    /// afterwards: blocking clauses, incremental translation of uncompiled
    /// bits, and assumptions all work, privately per finder.
    pub fn attach(compiled: &CompiledCircuit) -> Finder {
        Finder {
            solver: Solver::attach_shared(compiled.cnf()),
            node_var: compiled.node_var().to_vec(),
            const_true: compiled.const_true(),
            input_of_var: compiled.input_of_var().to_vec(),
        }
    }

    /// Statistics from the underlying SAT solver.
    pub fn solver_stats(&self) -> litsynth_sat::SolverStats {
        self.solver.stats()
    }

    /// Seeds the solver's branching order with the cones of `roots`: every
    /// already-compiled variable reachable from them gets one initial
    /// activity bump, so the first decisions favor the query's own cone
    /// over plain variable-index order. Purely a search-order hint: the
    /// set of satisfying instances is untouched.
    pub fn warm<I: IntoIterator<Item = Bit>>(&mut self, c: &Circuit, roots: I) {
        let mut seen = vec![false; c.num_nodes().min(self.node_var.len())];
        let mut stack: Vec<usize> = roots
            .into_iter()
            .map(|b| b.node())
            .filter(|&n| n < seen.len())
            .collect();
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            if let Some(v) = self.node_var[n] {
                self.solver.warm_var(v);
            }
            if let Node::And(a, b) = c.node(n) {
                for m in [a.node(), b.node()] {
                    if m < seen.len() && !seen[m] {
                        stack.push(m);
                    }
                }
            }
        }
    }

    /// Number of CNF variables allocated so far.
    pub fn num_cnf_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Declares the roots this finder is about to enumerate under (see
    /// [`litsynth_sat::Solver::declare_roots`]): with roots-first
    /// branching enabled ([`Finder::set_domain_enabled`]), solves branch
    /// on the roots' variables first.
    pub fn declare_roots(&mut self, c: &Circuit, bits: &[Bit]) {
        let lits: Vec<Lit> = bits.iter().map(|&b| self.lit_of(c, b)).collect();
        self.solver.declare_roots(lits);
    }

    /// Enables roots-first branching (see
    /// [`litsynth_sat::Solver::set_domain_enabled`]; default off): after
    /// the next [`Finder::declare_roots`], solves branch on the declared
    /// roots first and fall back to global VSIDS once they are assigned.
    pub fn set_domain_enabled(&mut self, on: bool) {
        self.solver.set_domain_enabled(on);
    }

    /// Controls level-0 inprocessing of the solver's private clause
    /// database (see [`litsynth_sat::Solver::set_inprocessing`]; default
    /// on). Inprocessing only removes satisfied/subsumed clauses and false
    /// literals, so the enumerated instance set is unchanged either way.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.solver.set_inprocessing(on);
    }

    /// Controls tiered learnt-clause retention (see
    /// [`litsynth_sat::Solver::set_tiered_retention`]; default on). `false`
    /// falls back to the legacy single-activity reduction policy. Retention
    /// only discards learnt clauses, so the enumerated instance set is
    /// unchanged either way.
    pub fn set_tiered_retention(&mut self, on: bool) {
        self.solver.set_tiered_retention(on);
    }

    /// Number of CNF clauses added so far.
    pub fn num_cnf_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// The CNF literal equivalent to `bit`, creating Tseitin definitions on
    /// demand.
    pub fn lit_of(&mut self, c: &Circuit, bit: Bit) -> Lit {
        if self.node_var.len() < c.num_nodes() {
            self.node_var.resize(c.num_nodes(), None);
        }
        // Iterative post-order translation.
        let mut stack = vec![bit.node()];
        while let Some(&n) = stack.last() {
            if self.node_var[n].is_some() {
                stack.pop();
                continue;
            }
            match c.node(n) {
                Node::ConstTrue => {
                    let v = *self.const_true.get_or_insert_with(|| {
                        let v = self.solver.new_var();
                        self.input_of_var.push(None);
                        self.solver.add_clause([Lit::pos(v)]);
                        v
                    });
                    self.node_var[n] = Some(v);
                    stack.pop();
                }
                Node::Input(i) => {
                    let v = self.solver.new_var();
                    self.input_of_var.push(Some(i as usize));
                    self.node_var[n] = Some(v);
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    if self.node_var[na].is_none() {
                        stack.push(na);
                        continue;
                    }
                    if self.node_var[nb].is_none() {
                        stack.push(nb);
                        continue;
                    }
                    let la = Lit::new(
                        self.node_var[na].expect("operand translated before its AND node"),
                        !a.is_negated(),
                    );
                    let lb = Lit::new(
                        self.node_var[nb].expect("operand translated before its AND node"),
                        !b.is_negated(),
                    );
                    let v = self.solver.new_var();
                    self.input_of_var.push(None);
                    // v ↔ la ∧ lb
                    self.solver.add_clause([Lit::neg(v), la]);
                    self.solver.add_clause([Lit::neg(v), lb]);
                    self.solver.add_clause([Lit::pos(v), !la, !lb]);
                    self.node_var[n] = Some(v);
                    stack.pop();
                }
            }
        }
        Lit::new(
            self.node_var[bit.node()].expect("root node translated by the post-order walk"),
            !bit.is_negated(),
        )
    }

    /// Adds each of `facts` to the formula as a unit clause, fixed at
    /// decision level 0 for the rest of this finder's life. Where
    /// assertions passed to [`Finder::next_instance`] are re-established
    /// as assumptions on every solve, a fact is propagated once, and the
    /// solver's level-0 machinery (clause minimization, satisfied-clause
    /// purging) can use it. Asserting the constant false makes every later
    /// solve unsatisfiable.
    pub fn assert_facts(&mut self, c: &Circuit, facts: &[Bit]) {
        for &f in facts {
            if f == Circuit::TRUE {
                continue;
            }
            if f == Circuit::FALSE {
                self.solver.add_clause([]);
                return;
            }
            let l = self.lit_of(c, f);
            self.solver.add_clause([l]);
        }
    }

    /// Finds the next instance satisfying all `asserts`, or `None`.
    ///
    /// The assertions are passed as solver assumptions, so they constrain
    /// only this call; blocking clauses added via [`Finder::block`] persist.
    pub fn next_instance(&mut self, c: &Circuit, asserts: &[Bit]) -> Option<Instance> {
        self.next_instance_exchanging(c, asserts, &mut NoExchange)
    }

    /// [`Finder::next_instance`] with learnt-clause exchange: the solver
    /// trades learnt clauses with portfolio peers through `exchange` at its
    /// restart boundaries. Imported clauses may only prune the search — the
    /// set of enumerated instances is unchanged as long as the exchange
    /// endpoint honors the soundness contract in
    /// [`litsynth_sat::ClauseExchange`].
    pub fn next_instance_exchanging(
        &mut self,
        c: &Circuit,
        asserts: &[Bit],
        exchange: &mut dyn ClauseExchange,
    ) -> Option<Instance> {
        match self.next_instance_budgeted(c, asserts, exchange, &SolveBudget::unlimited()) {
            Ok(r) => r,
            Err(i) => unreachable!("unlimited budget cannot interrupt, got {i:?}"),
        }
    }

    /// [`Finder::next_instance_exchanging`] under a [`SolveBudget`].
    ///
    /// `Ok(Some(inst))` is the next instance, `Ok(None)` means the query is
    /// exhausted, and `Err(interrupt)` means a budget, deadline,
    /// cancellation, or injected fault stopped the solve first. On `Err`
    /// the finder stays warm (blocking clauses and learnt clauses are
    /// kept), so the call can be retried with a larger budget.
    pub fn next_instance_budgeted(
        &mut self,
        c: &Circuit,
        asserts: &[Bit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> Result<Option<Instance>, Interrupt> {
        let Some(assumptions) = self.assumptions_for(c, asserts) else {
            return Ok(None);
        };
        self.solve_assuming(c, &assumptions, exchange, budget)
    }

    fn solve_assuming(
        &mut self,
        c: &Circuit,
        assumptions: &[Lit],
        exchange: &mut dyn ClauseExchange,
        budget: &SolveBudget,
    ) -> Result<Option<Instance>, Interrupt> {
        match self.solver.solve_budgeted(assumptions, exchange, budget) {
            BudgetedResult::Interrupted(i) => Err(i),
            BudgetedResult::Done(SolveResult::Unsat) => Ok(None),
            BudgetedResult::Done(SolveResult::Sat) => {
                let mut inputs = vec![false; c.num_inputs()];
                for (vi, &input) in self.input_of_var.iter().enumerate() {
                    if let Some(i) = input {
                        if let Some(val) = self.solver.value(Var::from_index(vi)) {
                            inputs[i] = val;
                        }
                    }
                }
                Ok(Some(Instance { inputs }))
            }
        }
    }

    /// Translates `asserts` to assumption literals; `None` if one of them
    /// is the constant false.
    fn assumptions_for(&mut self, c: &Circuit, asserts: &[Bit]) -> Option<Vec<Lit>> {
        let mut assumptions = Vec::with_capacity(asserts.len());
        for &a in asserts {
            if a == Circuit::FALSE {
                return None;
            }
            if a == Circuit::TRUE {
                continue;
            }
            assumptions.push(self.lit_of(c, a));
        }
        Some(assumptions)
    }

    /// Runs a short, conflict-bounded probing solve on the formula and the
    /// facts asserted so far ([`Finder::assert_facts`]).
    ///
    /// Returns `Some(sat)` on a definitive answer, `None` when the budget
    /// ran out first. Either way the solver is left warm: its VSIDS
    /// activities ([`Finder::activity_of`]) reflect which variables drove
    /// the search, which is what adaptive cube selection ranks pin
    /// candidates by.
    pub fn probe(&mut self, max_conflicts: u64) -> Option<bool> {
        self.solver
            .solve_limited(&[], max_conflicts)
            .map(SolveResult::is_sat)
    }

    /// The VSIDS activity of the CNF variable behind `bit` (0.0 for
    /// constants and for bits whose cone never conflicted).
    pub fn activity_of(&mut self, c: &Circuit, bit: Bit) -> f64 {
        if bit == Circuit::TRUE || bit == Circuit::FALSE {
            return 0.0;
        }
        let l = self.lit_of(c, bit);
        self.solver.activity(l.var())
    }

    /// Permanently excludes every instance that agrees with `inst` on all of
    /// the `observed` bits.
    pub fn block(&mut self, c: &Circuit, inst: &Instance, observed: &[Bit]) {
        let live: Vec<Bit> = observed
            .iter()
            .copied()
            .filter(|&b| b != Circuit::TRUE && b != Circuit::FALSE) // a constant can never differ
            .collect();
        // One shared-memo evaluation pass over all observed bits — the
        // bits share most of their cone, so per-bit eval would redo
        // O(bits × nodes) work on every blocked instance.
        let vals = inst.eval_many(c, &live);
        let mut clause = Vec::with_capacity(live.len());
        for (&b, val) in live.iter().zip(vals) {
            let lit = self.lit_of(c, b);
            clause.push(if val { !lit } else { lit });
        }
        self.solver.add_clause(clause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{Matrix1, Matrix2};

    #[test]
    fn sat_and_unsat_roots() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let both = c.and(x, y);
        let mut f = Finder::new(&c);
        let inst = f.next_instance(&c, &[both]).expect("x∧y is satisfiable");
        assert!(inst.eval(&c, x));
        assert!(inst.eval(&c, y));
        let contradiction = c.and(x, x.not());
        assert!(f.next_instance(&c, &[contradiction]).is_none());
    }

    #[test]
    fn constants_as_asserts() {
        let c = Circuit::new();
        let mut f = Finder::new(&c);
        assert!(f.next_instance(&c, &[Circuit::TRUE]).is_some());
        assert!(f.next_instance(&c, &[Circuit::FALSE]).is_none());
    }

    #[test]
    fn enumeration_counts_models() {
        // x ∨ y: 3 models over observed {x, y}.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let root = c.or(x, y);
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = f.next_instance(&c, &[root]) {
            n += 1;
            f.block(&c, &inst, &[x, y]);
            assert!(n <= 3);
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn blocking_on_derived_bits() {
        // Observe only x⊕y: two classes {same, different}.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let obs = c.xor(x, y);
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = f.next_instance(&c, &[Circuit::TRUE]) {
            n += 1;
            f.block(&c, &inst, &[obs]);
            assert!(n <= 2);
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn assumptions_do_not_persist_across_queries() {
        let mut c = Circuit::new();
        let x = c.input("x");
        let mut f = Finder::new(&c);
        assert!(f.next_instance(&c, &[x]).is_some());
        assert!(f.next_instance(&c, &[x.not()]).is_some());
        assert!(f.next_instance(&c, &[x]).is_some());
    }

    #[test]
    fn facts_hold_for_every_later_solve() {
        // x ∨ y as a fact: 3 models over {x, y} with no assumptions at
        // all, then asserting false leaves none.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let root = c.or(x, y);
        let mut f = Finder::new(&c);
        f.assert_facts(&c, &[Circuit::TRUE, root]);
        let mut n = 0;
        while let Some(inst) = f.next_instance(&c, &[]) {
            assert!(inst.eval(&c, root));
            n += 1;
            f.block(&c, &inst, &[x, y]);
            assert!(n <= 3);
        }
        assert_eq!(n, 3);
        let mut g = Finder::new(&c);
        g.assert_facts(&c, &[Circuit::FALSE]);
        assert!(g.next_instance(&c, &[]).is_none());
    }

    #[test]
    fn instance_eval_matches_solver() {
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..4).map(|i| c.input(format!("x{i}"))).collect();
        let f1 = c.xor(xs[0], xs[1]);
        let f2 = c.ite(xs[2], f1, xs[3]);
        let root = c.and(f2, xs[0]);
        let mut f = Finder::new(&c);
        let inst = f.next_instance(&c, &[root]).expect("satisfiable");
        assert!(inst.eval(&c, root));
        assert!(inst.eval(&c, xs[0]));
    }

    #[test]
    fn count_permutation_matrices() {
        // Bijections on 3 atoms: 3! = 6.
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 3, 3, "r");
        let func = r.is_function(&mut c);
        let inj = r.is_injective(&mut c);
        let total: Vec<Bit> = (0..3)
            .map(|i| {
                let row: Vec<Bit> = (0..3).map(|j| r.get(i, j)).collect();
                c.or_many(row)
            })
            .collect();
        let all_total = c.and_many(total);
        let asserts = vec![func, inj, all_total];
        let observed: Vec<Bit> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| r.get(i, j))
            .collect();
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = f.next_instance(&c, &asserts) {
            n += 1;
            f.block(&c, &inst, &observed);
            assert!(n <= 6);
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn interrupted_enumeration_resumes_without_losing_instances() {
        // An expired deadline interrupts before any search; retrying with
        // no budget must then enumerate exactly the clean-run instances.
        let mut c = Circuit::new();
        let x = c.input("x");
        let y = c.input("y");
        let root = c.or(x, y);
        let expired = SolveBudget {
            deadline: Some(std::time::Instant::now()),
            ..SolveBudget::default()
        };
        let mut f = Finder::new(&c);
        let mut n = 0;
        let mut interrupts = 0;
        loop {
            // First try under the expired deadline: always interrupted.
            match f.next_instance_budgeted(&c, &[root], &mut NoExchange, &expired) {
                Err(Interrupt::Deadline) => interrupts += 1,
                other => panic!("expected deadline interrupt, got {other:?}"),
            }
            // Retry without a budget: the finder stayed warm.
            match f.next_instance(&c, &[root]) {
                None => break,
                Some(inst) => {
                    n += 1;
                    f.block(&c, &inst, &[x, y]);
                    assert!(n <= 3);
                }
            }
        }
        assert_eq!(n, 3, "interrupts must not lose or duplicate instances");
        assert_eq!(interrupts, 4);
    }

    #[test]
    fn finder_and_instance_are_send() {
        // The parallel synthesis engine moves a private Finder (and its
        // enumerated Instances) into each worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<Finder>();
        assert_send::<Instance>();
        assert_send::<Circuit>();
    }

    #[test]
    fn cube_assumptions_partition_the_model_count() {
        // Pinning a set of observed bits to every boolean pattern splits
        // one enumeration into disjoint subqueries: the per-cube model
        // counts must sum to the unpartitioned count exactly.
        let build = || {
            let mut c = Circuit::new();
            let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
            // x0 ∨ x1 ∨ (x2 ∧ x3): 5 free-ish bits, a non-trivial count.
            let a = c.and(xs[2], xs[3]);
            let b = c.or(xs[0], xs[1]);
            let root = c.or(a, b);
            (c, xs, root)
        };
        let count = |mk_pins: &dyn Fn(&[Bit]) -> Vec<Bit>| {
            let (c, xs, root) = build();
            let mut f = Finder::new(&c);
            let mut asserts = vec![root];
            asserts.extend(mk_pins(&xs));
            let mut n = 0;
            while let Some(inst) = f.next_instance(&c, &asserts) {
                n += 1;
                f.block(&c, &inst, &xs);
                assert!(n <= 32);
            }
            n
        };
        let total = count(&|_| Vec::new());
        assert_eq!(total, 26, "6 of 32 assignments falsify the root");
        for bits in 1..=3usize {
            let mut sum = 0;
            for cube in 0..(1usize << bits) {
                sum += count(&|xs: &[Bit]| {
                    (0..bits)
                        .map(|j| {
                            if cube >> j & 1 == 1 {
                                xs[j]
                            } else {
                                xs[j].not()
                            }
                        })
                        .collect()
                });
            }
            assert_eq!(sum, total, "cube split over {bits} bit(s)");
        }
    }

    #[test]
    fn attached_finder_enumerates_like_a_fresh_one() {
        // The compile-once path must reproduce the demand-driven path
        // class for class, including blocking on derived (non-input) bits.
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let obs = vec![xs[0], xs[1], a];
        let enumerate = |mut f: Finder| {
            let mut seen = Vec::new();
            while let Some(inst) = f.next_instance(&c, &[root]) {
                seen.push(inst.eval_many(&c, &obs));
                f.block(&c, &inst, &obs);
                assert!(seen.len() <= 8);
            }
            seen.sort();
            seen
        };
        let fresh = enumerate(Finder::new(&c));
        let compiled = CompiledCircuit::compile(&c, [root].into_iter().chain(obs.clone()));
        let attached = enumerate(Finder::attach(&compiled));
        // A second attach is independent of the first one's blocking.
        let attached2 = enumerate(Finder::attach(&compiled));
        assert_eq!(fresh, attached);
        assert_eq!(fresh, attached2);
    }

    #[test]
    fn attached_cubes_partition_like_fresh_cubes() {
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let compiled = CompiledCircuit::compile(&c, [root].into_iter().chain(xs.iter().copied()));
        let count = |pins: &[Bit]| {
            let mut f = Finder::attach(&compiled);
            let mut asserts = vec![root];
            asserts.extend_from_slice(pins);
            let mut n = 0;
            while let Some(inst) = f.next_instance(&c, &asserts) {
                n += 1;
                f.block(&c, &inst, &xs);
                assert!(n <= 32);
            }
            n
        };
        let total = count(&[]);
        assert_eq!(total, 26);
        let split: usize = (0..4usize)
            .map(|cube| {
                let pins: Vec<Bit> = (0..2)
                    .map(|j| {
                        if cube >> j & 1 == 1 {
                            xs[j]
                        } else {
                            xs[j].not()
                        }
                    })
                    .collect();
                count(&pins)
            })
            .sum();
        assert_eq!(split, total);
    }

    #[test]
    fn one_live_solver_serves_consecutive_guarded_enumerations() {
        // Incremental enumeration on one live finder: each pass asserts a
        // guard input of its own and blocks on the observed bits plus that
        // guard, so every blocking clause reads `¬guard ∨ block` and goes
        // inert once a later pass stops asserting the guard. Every pass
        // must therefore see its full class set — same query or a
        // different one over the same formula. Learnt clauses survive
        // between passes; they are formula-implied, so they may only prune.
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let guards: Vec<Bit> = (0..4).map(|i| c.input(format!("g{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let roots: Vec<Bit> = [root, a, b]
            .into_iter()
            .chain(xs.iter().copied())
            .chain(guards.iter().copied())
            .collect();
        let compiled = CompiledCircuit::compile(&c, roots);
        let mut f = Finder::attach(&compiled);
        let queries: [(Bit, usize); 4] = [
            (root, 26),   // 6 of 32 assignments falsify the root
            (a, 8),       // x2 ∧ x3 pinned
            (root, 26),   // the first query again: nothing leaked
            (b.not(), 8), // ¬(x0 ∨ x1)
        ];
        for (pass, (&(query, expected), &guard)) in queries.iter().zip(&guards).enumerate() {
            let asserts = [query, guard];
            let observed: Vec<Bit> = xs.iter().copied().chain([guard]).collect();
            f.warm(&c, asserts);
            let mut n = 0;
            while let Some(inst) = f.next_instance(&c, &asserts) {
                n += 1;
                f.block(&c, &inst, &observed);
                assert!(n <= 32);
            }
            assert_eq!(n, expected, "pass {pass} must enumerate its full set");
        }
    }

    #[test]
    fn probe_warms_activities_deterministically() {
        let mut c = Circuit::new();
        let r = Matrix2::free(&mut c, 4, 4, "r");
        let func = r.is_function(&mut c);
        let inj = r.is_injective(&mut c);
        let obs: Vec<Bit> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| r.get(i, j))
            .collect();
        let roots: Vec<Bit> = [func, inj].into_iter().chain(obs.iter().copied()).collect();
        let compiled = CompiledCircuit::compile(&c, roots);
        let rank = |_: ()| {
            let mut f = Finder::attach(&compiled);
            f.assert_facts(&c, &[func, inj]);
            let _ = f.probe(50);
            let mut scored: Vec<(usize, f64)> = obs
                .iter()
                .enumerate()
                .map(|(i, &bit)| (i, f.activity_of(&c, bit)))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            scored.into_iter().map(|(i, _)| i).collect::<Vec<_>>()
        };
        // Probing is a pure function of the compiled query: two runs agree.
        assert_eq!(rank(()), rank(()));
    }

    #[test]
    fn compiled_circuit_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<CompiledCircuit>();
    }

    #[test]
    fn subset_enumeration() {
        // Subsets of a 4-atom sort that contain atom 0: 8.
        let mut c = Circuit::new();
        let s = Matrix1::free(&mut c, 4, "s");
        let has0 = s.get(0);
        let observed: Vec<Bit> = (0..4).map(|i| s.get(i)).collect();
        let mut f = Finder::new(&c);
        let mut n = 0;
        while let Some(inst) = f.next_instance(&c, &[has0]) {
            n += 1;
            f.block(&c, &inst, &observed);
            assert!(n <= 8);
        }
        assert_eq!(n, 8);
    }
}
