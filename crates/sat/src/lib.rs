//! # litsynth-sat
//!
//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the bottom layer of the `litsynth` stack: the bounded
//! relational model finder in `litsynth-relalg` compiles relational logic to
//! CNF and uses this solver to enumerate model instances, exactly as the
//! paper's Alloy → Kodkod → MiniSAT pipeline does.
//!
//! The solver implements the standard modern architecture:
//!
//! * two-watched-literal unit propagation over a literal-indexed
//!   assignment,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * VSIDS variable activity with an indexed max-heap,
//! * phase saving,
//! * Luby-sequence restarts,
//! * a flat `u32` clause arena with free-list reuse and relocation GC,
//! * tiered learnt-clause retention (core/mid/local by LBD) with
//!   size-triggered database reduction,
//! * level-0 inprocessing: satisfied-clause purging, false-literal
//!   stripping, and on-the-fly subsumption / self-subsuming resolution,
//! * incremental solving under assumptions, and
//! * incremental clause addition between `solve` calls (used for
//!   blocking-clause model enumeration).
//!
//! For portfolio solving, a formula can be compiled once into an immutable
//! [`SharedCnf`] (via [`CnfBuilder`]) and loaded into any number of
//! solvers with [`Solver::attach_shared`], each of which copies the
//! clauses into its own flat arena; cooperating solvers can trade
//! learnt clauses through a [`ClauseExchange`] endpoint via
//! [`Solver::solve_exchanging`], and [`Solver::solve_limited`] supports
//! short probing runs whose VSIDS activities ([`Solver::activity`]) drive
//! adaptive cube selection in `litsynth-portfolio`.
//!
//! For resilience, [`Solver::solve_budgeted`] bounds a solve by conflicts,
//! propagations, and wall clock under a [`SolveBudget`], honors a shared
//! [`CancelToken`], and returns [`BudgetedResult::Interrupted`] instead of
//! looping forever; a [`FaultPlan`] (normally armed via the
//! `LITSYNTH_FAULT_PLAN` environment variable) injects panics, interrupts,
//! and stalls at deterministic (query, cube, attempt, restart) coordinates
//! so every recovery path can be exercised in tests.
//!
//! # Example
//!
//! ```
//! use litsynth_sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) — forces b.
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

mod arena;
mod budget;
mod exchange;
mod fault;
mod heap;
mod shared;
mod solver;
mod types;

pub mod dimacs;

pub use budget::{BudgetedResult, CancelToken, Interrupt, SolveBudget};
pub use exchange::{ClauseExchange, NoExchange};
pub use fault::{FaultAction, FaultCtx, FaultPlan, FaultPlanError, FaultSite};
pub use shared::{CnfBuilder, CnfLayer, SharedCnf};
pub use solver::{SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::neg(a)]);
        assert!(!s.solve().is_sat());
    }
}
