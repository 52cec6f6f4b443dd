//! Learnt-clause exchange between cooperating solvers.
//!
//! A portfolio of solvers working on disjoint parts of one search space
//! (e.g. the cube workers of a partitioned enumeration) can share what they
//! learn: every learnt clause is a resolvent of database clauses, so it is
//! implied by the formula the solvers have in common and pruning with it
//! can never change which models exist — only how fast they are found.
//!
//! The solver side of the protocol is this trait. At every restart boundary
//! (and at the end of each solve) the solver *exports* the clauses it learnt
//! since the last exchange point and *fetches* whatever its peers published
//! in the meantime; fetched clauses enter the database as learnt imports,
//! eligible for the usual database reduction.
//!
//! # Soundness contract for implementors
//!
//! Every clause returned by [`ClauseExchange::fetch`] must be satisfied by
//! every assignment the receiving solver is still expected to find. For
//! the synthesis portfolio this holds because cube workers share one
//! compiled formula, cubes are pinned on *observed* bits, and blocking
//! clauses from one cube are automatically satisfied inside every other
//! cube — see `crates/portfolio` for the full argument.

use crate::types::Lit;

/// One endpoint of a clause-exchange channel.
pub trait ClauseExchange {
    /// Offers a clause learnt since the last exchange point, with its LBD
    /// (number of distinct decision levels among its literals — lower is
    /// better). The endpoint decides whether to publish it.
    fn export(&mut self, lits: &[Lit], lbd: u32);

    /// Appends peer clauses not yet seen by this endpoint to `out`, each
    /// with the LBD its sender reported. The receiver treats the LBD as an upper bound — it recomputes a tighter
    /// one when the clause participates in conflict analysis — but the
    /// sender-side value is what keeps tiered retention from misfiling an
    /// import before its first use.
    fn fetch(&mut self, out: &mut Vec<(Vec<Lit>, u32)>);
}

/// The no-op exchange: plain solving without a portfolio.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoExchange;

impl ClauseExchange for NoExchange {
    fn export(&mut self, _lits: &[Lit], _lbd: u32) {}
    fn fetch(&mut self, _out: &mut Vec<(Vec<Lit>, u32)>) {}
}
