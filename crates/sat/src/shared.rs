//! Compile-once CNF formulas.
//!
//! A [`SharedCnf`] is an immutable CNF formula stored as a chain of
//! reference-counted [`CnfLayer`]s. It is built once with a [`CnfBuilder`]
//! and then loaded into any number of solvers via
//! [`crate::Solver::attach_shared`], each of which copies the clauses into
//! its own arena. This is what lets a portfolio of cube workers solve the
//! same compiled query without each re-translating it.
//!
//! The layering is what makes compilation incremental: a builder created
//! with [`CnfBuilder::extending`] continues variable numbering where the
//! base formula left off and records only the *new* clauses, so the built
//! [`SharedCnf`] shares every base layer by `Arc` with the formula it
//! extends.
//!
//! Each layer carries a provenance tag ([`CnfLayer::is_skeleton`]): `true`
//! for layers encoding axiom-independent structural skeleton, `false` for
//! axiom-specific (or monolithic) layers. It is metadata only — it enters
//! the layer fingerprint, nothing more.
//!
//! Orthogonally, a layer can be tagged *definitional*
//! ([`CnfLayer::is_definitional`]): every clause in it is a pure Tseitin
//! naming constraint — its freshest (maximum) variable is a gate the
//! clause helps define, and gates are functions of strictly older
//! variables. Each layer owns the contiguous variable range
//! `[prev.num_vars(), num_vars())` ([`SharedCnf::layer_var_range`]) and
//! the contiguous clause range [`SharedCnf::layer_clause_range`] ("which
//! layer owns this variable" is a single binary search,
//! [`SharedCnf::layer_of_var`]).

use crate::types::{Lit, Var};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One immutable layer of clauses in a [`SharedCnf`] chain.
///
/// Invariants (established by [`CnfBuilder`]): every stored non-unit
/// clause has at least two distinct, non-complementary literals.
#[derive(Debug)]
pub struct CnfLayer {
    /// Total variables allocated up to and including this layer.
    num_vars: usize,
    /// Flat literal arena for this layer's non-unit clauses.
    lits: Vec<Lit>,
    /// `(start, len)` of each clause inside this layer's `lits`.
    ranges: Vec<(u32, u32)>,
    /// Unit clauses contributed by this layer.
    units: Vec<Lit>,
    /// `true` when this layer encodes shared structural skeleton.
    skeleton: bool,
    /// `true` when every clause of this layer is a Tseitin naming
    /// constraint over the layer's own gate variables (a definition cone):
    /// the layer asserts nothing by itself.
    definitional: bool,
    /// Content fingerprint of the whole chain ending at this layer.
    fingerprint: u64,
}

impl CnfLayer {
    /// Non-unit clauses contributed by this layer alone.
    pub fn num_clauses(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when this layer encodes shared structural skeleton.
    pub fn is_skeleton(&self) -> bool {
        self.skeleton
    }

    /// `true` when this layer is a pure definition cone (see
    /// [`CnfBuilder::build_layer`]).
    pub fn is_definitional(&self) -> bool {
        self.definitional
    }

    /// Unit clauses contributed by this layer alone.
    pub fn units(&self) -> &[Lit] {
        &self.units
    }

    /// Total variables allocated up to and including this layer (the
    /// cumulative count, not the layer's own).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cumulative chain fingerprint ending at this layer. Equal
    /// fingerprints imply literally identical clause sets over identical
    /// variable indices, which is what makes cross-query clause reuse
    /// keyed on it sound.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// An immutable shared CNF formula: a chain of [`CnfLayer`]s plus the
/// flattened indexing a solver needs to address clauses by a single dense
/// index. Cloning is cheap for the clause data (layers are shared by
/// `Arc`).
#[derive(Debug, Clone, Default)]
pub struct SharedCnf {
    layers: Vec<Arc<CnfLayer>>,
    /// `clause_start[i]` = number of non-unit clauses in layers `0..i`.
    clause_start: Vec<usize>,
    num_vars: usize,
    num_clauses: usize,
    num_lits: usize,
    /// All unit clauses of the chain, in layer order.
    units: Vec<Lit>,
    ok: bool,
}

impl SharedCnf {
    /// Number of variables the formula was built over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of non-unit clauses in the arena.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// The unit clauses, as literals.
    pub fn units(&self) -> &[Lit] {
        &self.units
    }

    /// `false` if an empty clause was added: the formula is trivially
    /// unsatisfiable.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The literals of clause `i`.
    #[inline]
    pub fn clause(&self, i: usize) -> &[Lit] {
        let li = self.layer_of(i);
        let layer = &self.layers[li];
        let (start, len) = layer.ranges[i - self.clause_start[li]];
        &layer.lits[start as usize..(start + len) as usize]
    }

    #[inline]
    fn layer_of(&self, clause: usize) -> usize {
        debug_assert!(clause < self.num_clauses);
        self.clause_start.partition_point(|&s| s <= clause) - 1
    }

    /// The index of the layer that owns (non-unit) clause `i`.
    #[inline]
    pub fn layer_of_clause(&self, i: usize) -> usize {
        self.layer_of(i)
    }

    /// The index of the layer that owns variable `v` — layers own
    /// contiguous, ascending variable ranges, so this is a binary search.
    #[inline]
    pub fn layer_of_var(&self, v: Var) -> usize {
        self.layers.partition_point(|l| l.num_vars <= v.index())
    }

    /// The half-open variable range `[lo, hi)` owned by layer `li`.
    pub fn layer_var_range(&self, li: usize) -> std::ops::Range<usize> {
        let lo = if li == 0 {
            0
        } else {
            self.layers[li - 1].num_vars
        };
        lo..self.layers[li].num_vars
    }

    /// The half-open flat clause-index range owned by layer `li`.
    pub fn layer_clause_range(&self, li: usize) -> std::ops::Range<usize> {
        let lo = self.clause_start[li];
        lo..lo + self.layers[li].ranges.len()
    }

    /// Total literal count across all arena clauses.
    pub fn num_lits(&self) -> usize {
        self.num_lits
    }

    /// Number of layers in the chain.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layers, oldest first.
    pub fn layers(&self) -> &[Arc<CnfLayer>] {
        &self.layers
    }

    /// Content fingerprint of the whole chain (see
    /// [`CnfLayer::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.layers.last().map_or(FNV_OFFSET, |l| l.fingerprint)
    }
}

/// Builds a [`SharedCnf`], mirroring the clause normalization that
/// [`crate::Solver::add_clause`] performs (sorting, duplicate removal,
/// tautology elimination) minus the assignment-dependent simplification a
/// live solver would also apply.
#[derive(Debug, Default)]
pub struct CnfBuilder {
    base: Vec<Arc<CnfLayer>>,
    num_vars: usize,
    lits: Vec<Lit>,
    ranges: Vec<(u32, u32)>,
    units: Vec<Lit>,
    ok: bool,
}

impl CnfBuilder {
    /// Creates an empty builder (fresh chain).
    pub fn new() -> CnfBuilder {
        CnfBuilder {
            ok: true,
            ..CnfBuilder::default()
        }
    }

    /// A builder that extends `base`: variable numbering continues where
    /// `base` left off, and the built formula shares every one of `base`'s
    /// layers by `Arc`, adding exactly one new layer holding the clauses
    /// added here.
    pub fn extending(base: &SharedCnf) -> CnfBuilder {
        CnfBuilder {
            base: base.layers.clone(),
            num_vars: base.num_vars,
            ok: base.ok,
            ..CnfBuilder::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Number of variables allocated so far (including any base chain).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of non-unit clauses added to this builder's own layer.
    pub fn num_clauses(&self) -> usize {
        self.ranges.len()
    }

    /// Adds a clause. Returns `false` if the clause was empty (the formula
    /// is now trivially unsatisfiable).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        ls.sort();
        ls.dedup();
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: l and ¬l both present
            }
        }
        match ls.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.units.push(ls[0]);
                true
            }
            _ => {
                self.ranges.push((self.lits.len() as u32, ls.len() as u32));
                self.lits.extend(ls);
                true
            }
        }
    }

    /// Finalizes the formula, tagging the new layer non-skeleton.
    pub fn build(self) -> SharedCnf {
        self.build_layer(false, false)
    }

    /// Finalizes the formula, tagging the newly built layer's provenance:
    /// `skeleton == true` marks it as axiom-independent structural
    /// skeleton, eligible to anchor cross-query clause reuse.
    pub fn build_tagged(self, skeleton: bool) -> SharedCnf {
        self.build_layer(skeleton, false)
    }

    /// Finalizes the formula with full provenance. `definitional == true`
    /// additionally promises that every clause of the new layer is a
    /// Tseitin naming constraint — its freshest (maximum) variable is one
    /// of the layer's own gate variables, defined as a function of
    /// strictly older variables — so the layer asserts nothing by itself.
    /// The promise is checked structurally here (every clause must be
    /// owned by a layer-own variable); the deeper functional property is
    /// the encoder's contract — `litsynth-relalg` is the only producer.
    ///
    /// # Panics
    ///
    /// Panics if `definitional` is set and some clause of the new layer
    /// contains no layer-own variable.
    pub fn build_layer(self, skeleton: bool, definitional: bool) -> SharedCnf {
        if definitional {
            let first_var = self.base.last().map_or(0, |l| l.num_vars);
            let clauses = self
                .ranges
                .iter()
                .map(|&(start, len)| &self.lits[start as usize..(start + len) as usize]);
            for lits in clauses.chain(self.units.iter().map(std::slice::from_ref)) {
                assert!(
                    lits.iter().any(|l| l.var().index() >= first_var),
                    "definitional layer clause owns no layer variable"
                );
            }
        }
        let mut fp = self.base.last().map_or(FNV_OFFSET, |l| l.fingerprint);
        fp = fnv_fold_u64(fp, self.num_vars as u64);
        fp = fnv_fold_u64(fp, skeleton as u64 | (definitional as u64) << 1);
        for &u in &self.units {
            fp = fnv_fold_u64(fp, 1 + u.code() as u64);
        }
        fp = fnv_fold_u64(fp, u64::MAX); // separator: units vs clauses
        for &(start, len) in &self.ranges {
            fp = fnv_fold_u64(fp, len as u64);
            for &l in &self.lits[start as usize..(start + len) as usize] {
                fp = fnv_fold_u64(fp, 1 + l.code() as u64);
            }
        }
        let layer = Arc::new(CnfLayer {
            num_vars: self.num_vars,
            lits: self.lits,
            ranges: self.ranges,
            units: self.units,
            skeleton,
            definitional,
            fingerprint: fp,
        });
        let mut layers = self.base;
        layers.push(layer);
        let mut clause_start = Vec::with_capacity(layers.len());
        let mut num_clauses = 0usize;
        let mut num_lits = 0usize;
        let mut units = Vec::new();
        for l in &layers {
            clause_start.push(num_clauses);
            num_clauses += l.ranges.len();
            num_lits += l.lits.len();
            units.extend_from_slice(&l.units);
        }
        SharedCnf {
            num_vars: layers.last().map_or(0, |l| l.num_vars),
            layers,
            clause_start,
            num_clauses,
            num_lits,
            units,
            ok: self.ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_normalizes_clauses() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        assert!(b.add_clause([Lit::pos(x), Lit::neg(x)])); // tautology dropped
        assert!(b.add_clause([Lit::pos(y), Lit::pos(y)])); // dedups to a unit
        assert!(b.add_clause([Lit::pos(x), Lit::pos(y)]));
        let cnf = b.build();
        assert!(cnf.is_ok());
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.units(), &[Lit::pos(y)]);
        assert_eq!(cnf.clause(0), &[Lit::pos(x), Lit::pos(y)]);
    }

    #[test]
    fn empty_clause_marks_unsat() {
        let mut b = CnfBuilder::new();
        let _ = b.new_var();
        assert!(!b.add_clause([]));
        assert!(!b.build().is_ok());
    }

    #[test]
    fn extending_shares_base_layers_and_continues_var_numbering() {
        let mut b = CnfBuilder::new();
        let v0 = b.new_var();
        let v1 = b.new_var();
        b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
        b.add_clause([Lit::neg(v0)]);
        let base = b.build_tagged(true);
        assert_eq!(base.num_layers(), 1);
        assert!(base.layers()[0].is_skeleton());

        let mut e = CnfBuilder::extending(&base);
        let v2 = e.new_var();
        assert_eq!(v2.index(), 2, "numbering continues past the base");
        e.add_clause([Lit::neg(v1), Lit::pos(v2)]);
        e.add_clause([Lit::pos(v2)]);
        let ext = e.build();

        assert_eq!(ext.num_layers(), 2);
        assert_eq!(ext.num_vars(), 3);
        assert_eq!(ext.num_clauses(), 2);
        // Clause indexing is flat across layers, base first.
        assert_eq!(ext.clause(0), &[Lit::pos(v0), Lit::pos(v1)]);
        assert_eq!(ext.clause(1), &[Lit::neg(v1), Lit::pos(v2)]);
        assert_eq!(ext.layer_of_clause(0), 0);
        assert_eq!(ext.layer_of_clause(1), 1);
        assert!(!ext.layers()[1].is_skeleton());
        // Units concatenate in layer order.
        assert_eq!(ext.units(), &[Lit::neg(v0), Lit::pos(v2)]);
        // The base layer is literally shared, not copied.
        assert!(Arc::ptr_eq(&base.layers()[0], &ext.layers()[0]));
        // The base view is untouched.
        assert_eq!(base.num_vars(), 2);
        assert_eq!(base.num_clauses(), 1);
    }

    #[test]
    fn fingerprints_identify_identical_prefixes() {
        let build_base = || {
            let mut b = CnfBuilder::new();
            let v0 = b.new_var();
            let v1 = b.new_var();
            b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
            b.build_tagged(true)
        };
        let base1 = build_base();
        let base2 = build_base();
        assert_eq!(base1.fingerprint(), base2.fingerprint());

        let mut e1 = CnfBuilder::extending(&base1);
        let v2 = e1.new_var();
        e1.add_clause([Lit::pos(v2)]);
        let ext1 = e1.build();
        // The extension changes the chain fingerprint but keeps the
        // prefix fingerprint visible on its base layer.
        assert_ne!(ext1.fingerprint(), base1.fingerprint());
        assert_eq!(ext1.layers()[0].fingerprint(), base1.fingerprint());
        // The layer tag is part of the content.
        let mut e2 = CnfBuilder::extending(&base1);
        let v2 = e2.new_var();
        e2.add_clause([Lit::pos(v2)]);
        assert_ne!(e2.build_tagged(true).fingerprint(), ext1.fingerprint());
        // Different content ⇒ different fingerprint.
        let mut d = CnfBuilder::new();
        let v0 = d.new_var();
        let v1 = d.new_var();
        d.add_clause([Lit::pos(v0), Lit::neg(v1)]);
        assert_ne!(d.build_tagged(true).fingerprint(), base1.fingerprint());
    }

    #[test]
    fn layer_metadata_exposes_cone_ranges_and_tags() {
        let mut b = CnfBuilder::new();
        let v0 = b.new_var();
        let v1 = b.new_var();
        b.add_clause([Lit::pos(v0), Lit::pos(v1)]);
        let base = b.build_tagged(true);
        let extend = |definitional: bool| {
            let mut e = CnfBuilder::extending(&base);
            let v2 = e.new_var();
            let v3 = e.new_var();
            e.add_clause([Lit::neg(v2), Lit::pos(v0)]);
            e.add_clause([Lit::neg(v3), Lit::pos(v2)]);
            e.add_clause([Lit::pos(v3)]);
            e.build_layer(true, definitional)
        };
        let ext = extend(true);
        assert!(!ext.layers()[0].is_definitional());
        assert!(ext.layers()[1].is_definitional());
        assert!(ext.layers()[1].is_skeleton());
        // Contiguous per-layer variable and clause ownership.
        assert_eq!(ext.layer_var_range(0), 0..2);
        assert_eq!(ext.layer_var_range(1), 2..4);
        assert_eq!(ext.layer_clause_range(0), 0..1);
        assert_eq!(ext.layer_clause_range(1), 1..3);
        assert_eq!(ext.layer_of_var(v0), 0);
        assert_eq!(ext.layer_of_var(v1), 0);
        let v2 = Var::from_index(2);
        assert_eq!(ext.layer_of_var(v2), 1);
        assert_eq!(ext.layer_of_clause(0), 0);
        assert_eq!(ext.layer_of_clause(2), 1);
        assert_eq!(ext.layers()[1].units().len(), 1);
        assert_eq!(ext.layers()[1].num_vars(), 4, "cumulative, not own");
        // The definitional tag is part of the chain fingerprint: two
        // chains that differ only in it are different formulas.
        assert_ne!(ext.fingerprint(), extend(false).fingerprint());
    }

    #[test]
    fn extending_an_unsat_base_stays_unsat() {
        let mut b = CnfBuilder::new();
        let _ = b.new_var();
        b.add_clause([]);
        let base = b.build();
        let mut e = CnfBuilder::extending(&base);
        let v = e.new_var();
        e.add_clause([Lit::pos(v)]);
        assert!(!e.build().is_ok());
    }
}
