//! The Power memory model of Alglave, Maranget & Tautschnig ("herding
//! cats", 2014) — the formulation the paper uses (Figure 15) — and its
//! ARMv7 variant (§6.2: broadly Power without `lwsync`).

use crate::alg::RelAlg;
use crate::ctx::Ctx;
use crate::model::MemoryModel;
use litsynth_litmus::{DepKind, FenceKind};

/// Power (or ARMv7 when built with [`Power::armv7`]).
///
/// Four axioms over the herding-cats derived relations:
///
/// ```text
/// acyclic(po_loc ∪ com)                    -- sc_per_loc (uniproc)
/// acyclic(ppo ∪ fences ∪ rfe)              -- no_thin_air
/// irreflexive(fre ; prop ; hb*)            -- observation
/// acyclic(co ∪ prop)                       -- propagation
/// ```
///
/// with `ppo` the fixed point of the four mutually recursive `ii/ic/ci/cc`
/// relations — the computational cost the paper's §6.2 calls out.
#[derive(Clone, Copy, Debug)]
pub struct Power {
    armv7: bool,
}

impl Default for Power {
    fn default() -> Self {
        Power::new()
    }
}

/// The derived relations an axiom needs; computed once per context.
struct Derived<A: RelAlg> {
    hb: A::Rel,
    prop: A::Rel,
}

impl Power {
    /// The Power model (with `lwsync`).
    pub fn new() -> Power {
        Power { armv7: false }
    }

    /// The ARMv7 variant: `dmb` only (no lightweight fence).
    pub fn armv7() -> Power {
        Power { armv7: true }
    }

    /// Preserved program order: the fixed point of the herding-cats
    /// `ii/ic/ci/cc` system, then `(R×R ∩ ii) ∪ (R×W ∩ ic)`.
    pub fn ppo<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> A::Rel {
        self.ppo_with_rounds(alg, ctx, ctx.n + 2)
    }

    /// `ppo` with an explicit round bound (tests use a large bound to verify
    /// that `n + 2` rounds already reach the fixed point).
    pub fn ppo_with_rounds<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, rounds: usize) -> A::Rel {
        let po_loc = ctx.po_loc(alg);
        let dp = alg.union(&ctx.addr_dep, &ctx.data_dep);
        let rfi = ctx.rfi(alg);
        let rfe = ctx.rfe(alg);
        let fre = ctx.fre(alg);
        let coe = ctx.coe(alg);
        // rdw: two po_loc reads seeing writes "the wrong way round";
        // detour: a write locally overtaken by an external write.
        let rdw = {
            let s = alg.seq(&fre, &rfe);
            alg.inter(&po_loc, &s)
        };
        let detour = {
            let s = alg.seq(&coe, &rfe);
            alg.inter(&po_loc, &s)
        };
        let addr_po = alg.seq(&ctx.addr_dep, &ctx.po);

        let ii0 = alg.union_many(&[&dp, &rdw, &rfi]);
        let ic0 = alg.empty_rel(ctx.n);
        let ci0 = alg.union(&ctx.ctrlisync_dep, &detour);
        let cc0 = alg.union_many(&[&dp, &po_loc, &ctx.ctrl_dep, &addr_po]);

        let mut ii = ii0.clone();
        let mut ic = ic0.clone();
        let mut ci = ci0.clone();
        let mut cc = cc0.clone();
        // The system is monotone; iterate simultaneously. `ii;ii` and
        // `cc;cc` double path lengths each round, so convergence needs only
        // logarithmically many rounds; n+2 is a safe overshoot at litmus
        // scale, and the concrete world stops as soon as nothing changes.
        for _ in 0..rounds {
            let ic_ci = alg.seq(&ic, &ci);
            let ii_ii = alg.seq(&ii, &ii);
            let ii2 = alg.union_many(&[&ii0, &ci, &ic_ci, &ii_ii]);

            let ic_cc = alg.seq(&ic, &cc);
            let ii_ic = alg.seq(&ii, &ic);
            let ic2 = alg.union_many(&[&ic0, &ii, &cc, &ic_cc, &ii_ic]);

            let ci_ii = alg.seq(&ci, &ii);
            let cc_ci = alg.seq(&cc, &ci);
            let ci2 = alg.union_many(&[&ci0, &ci_ii, &cc_ci]);

            let ci_ic = alg.seq(&ci, &ic);
            let cc_cc = alg.seq(&cc, &cc);
            let cc2 = alg.union_many(&[&cc0, &ci, &ci_ic, &cc_cc]);

            let stable = alg.rel_eq(&ii, &ii2) == Some(true)
                && alg.rel_eq(&ic, &ic2) == Some(true)
                && alg.rel_eq(&ci, &ci2) == Some(true)
                && alg.rel_eq(&cc, &cc2) == Some(true);
            ii = ii2;
            ic = ic2;
            ci = ci2;
            cc = cc2;
            if stable {
                break;
            }
        }

        let rr = alg.cross(&ctx.read, &ctx.read);
        let rw = alg.cross(&ctx.read, &ctx.write);
        let rr_ii = alg.inter(&rr, &ii);
        let rw_ic = alg.inter(&rw, &ic);
        alg.union(&rr_ii, &rw_ic)
    }

    /// The effective fence order: `sync` plus (on Power) `lwsync` minus its
    /// write→read blind spot.
    pub fn fences<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> A::Rel {
        let ffence = ctx.fence_order(alg, FenceKind::Full);
        if self.armv7 {
            return ffence;
        }
        let lw = ctx.fence_order(alg, FenceKind::Lightweight);
        let wr = alg.cross(&ctx.write, &ctx.read);
        let lw_eff = alg.diff(&lw, &wr);
        alg.union(&ffence, &lw_eff)
    }

    fn derived<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> Derived<A> {
        let ppo = self.ppo(alg, ctx);
        let fences = self.fences(alg, ctx);
        let rfe = ctx.rfe(alg);
        let hb = alg.union_many(&[&ppo, &fences, &rfe]);
        // prop-base = (fences ∪ rfe;fences) ; hb*
        let hb_star = alg.rtc(&hb);
        let rfe_f = alg.seq(&rfe, &fences);
        let base0 = alg.union(&fences, &rfe_f);
        let prop_base = alg.seq(&base0, &hb_star);
        // prop = (W×W ∩ prop-base) ∪ (com* ; prop-base* ; sync ; hb*)
        let ww = alg.cross(&ctx.write, &ctx.write);
        let chunk1 = alg.inter(&ww, &prop_base);
        let com = ctx.com(alg);
        let com_star = alg.rtc(&com);
        let pb_star = alg.rtc(&prop_base);
        let ffence = ctx.fence_order(alg, FenceKind::Full);
        let t1 = alg.seq(&com_star, &pb_star);
        let t2 = alg.seq(&t1, &ffence);
        let chunk2 = alg.seq(&t2, &hb_star);
        let prop = alg.union(&chunk1, &chunk2);
        Derived { hb, prop }
    }
}

impl MemoryModel for Power {
    fn name(&self) -> &'static str {
        if self.armv7 {
            "ARMv7"
        } else {
            "Power"
        }
    }

    fn axioms(&self) -> &'static [&'static str] {
        &["sc_per_loc", "no_thin_air", "observation", "propagation"]
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
                let d = self.derived(alg, ctx);
                alg.acyclic(&d.hb)
            }
            "observation" => {
                let d = self.derived(alg, ctx);
                let fre = ctx.fre(alg);
                let hb_star = alg.rtc(&d.hb);
                let t = alg.seq(&fre, &d.prop);
                let t = alg.seq(&t, &hb_star);
                alg.irreflexive(&t)
            }
            "propagation" => {
                let d = self.derived(alg, ctx);
                let u = alg.union(&ctx.co, &d.prop);
                alg.acyclic(&u)
            }
            other => panic!("Power has no axiom {other:?}"),
        }
    }

    fn fence_kinds(&self) -> &'static [FenceKind] {
        if self.armv7 {
            &[FenceKind::Full]
        } else {
            &[FenceKind::Full, FenceKind::Lightweight]
        }
    }

    fn dep_kinds(&self) -> &'static [DepKind] {
        &[
            DepKind::Addr,
            DepKind::Data,
            DepKind::Ctrl,
            DepKind::CtrlIsync,
        ]
    }

    fn fence_demotions(&self, kind: FenceKind) -> Vec<litsynth_litmus::FenceKind> {
        // DF on Power demotes the heavyweight sync to lwsync; lwsync has no
        // weaker fence (removal is RI's job). ARMv7 has only dmb.
        match kind {
            FenceKind::Full if !self.armv7 => vec![FenceKind::Lightweight],
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
    use litsynth_litmus::suites::classics;
    use litsynth_litmus::{Execution, LitmusTest, Outcome};

    fn observable(test: &LitmusTest, o: &Outcome) -> bool {
        let m = Power::new();
        let mut alg = ConcreteAlg;
        Execution::enumerate(test)
            .iter()
            .any(|e| o.matches(&e.outcome()) && m.valid(&mut alg, &concrete_ctx(test, e, &[])))
    }

    #[test]
    fn power_allows_the_classic_relaxed_behaviors() {
        for (t, o) in [
            classics::mp(),
            classics::sb(),
            classics::lb(),
            classics::s(),
            classics::r(),
            classics::two_plus_two_w(),
            classics::wrc(),
            classics::iriw(),
            classics::rwc(),
            classics::wwc(),
            classics::isa2(),
            classics::mp_addr(), // reader-side dep alone is not enough
        ] {
            assert!(
                observable(&t, &o),
                "{} must be allowed under Power",
                t.name()
            );
        }
    }

    #[test]
    fn power_keeps_coherence() {
        for (t, o) in [
            classics::corr(),
            classics::coww(),
            classics::corw(),
            classics::cowr(),
            classics::colb(),
        ] {
            assert!(!observable(&t, &o), "{} must stay forbidden", t.name());
        }
    }

    #[test]
    fn fences_and_deps_forbid() {
        for (t, o) in [
            classics::sb_fences(),
            classics::mp_fences(FenceKind::Full, "MP+syncs"),
            classics::mp_fences(FenceKind::Lightweight, "MP+lwsyncs"),
            classics::mp_fence_addr(FenceKind::Lightweight, "MP+lwsync+addr"),
            classics::lb_addrs(),
            classics::lb_datas(),
            classics::isa2_sync_deps(),
        ] {
            assert!(
                !observable(&t, &o),
                "{} must be forbidden under Power",
                t.name()
            );
        }
    }

    #[test]
    fn lwsync_does_not_stop_sb() {
        // lwsync has no write→read power.
        let t = LitmusTest::new(
            "SB+lwsyncs",
            vec![
                vec![
                    litsynth_litmus::Instr::store(0),
                    litsynth_litmus::Instr::fence(FenceKind::Lightweight),
                    litsynth_litmus::Instr::load(1),
                ],
                vec![
                    litsynth_litmus::Instr::store(1),
                    litsynth_litmus::Instr::fence(FenceKind::Lightweight),
                    litsynth_litmus::Instr::load(0),
                ],
            ],
        );
        let o = classics::oc([(2, None), (5, None)], []);
        assert!(observable(&t, &o));
    }

    #[test]
    fn armv7_lacks_lwsync() {
        let a = Power::armv7();
        assert_eq!(a.name(), "ARMv7");
        assert_eq!(a.fence_kinds(), &[FenceKind::Full]);
        // DF needs ≥2 fence strengths.
        assert!(!a.relaxations().contains(&RelaxKind::Df));
        assert!(Power::new().relaxations().contains(&RelaxKind::Df));
    }

    #[test]
    fn ppo_fixed_iterations_match_true_fixpoint() {
        // For a batch of executions, iterating the ppo system until
        // stability (what ConcreteAlg's rel_eq enables) must equal a much
        // longer fixed-round iteration — guarding the symbolic bound.
        let m = Power::new();
        let mut alg = ConcreteAlg;
        for (t, _) in [
            classics::lb_addrs(),
            classics::isa2_sync_deps(),
            classics::wrc_deps(),
        ] {
            for e in Execution::enumerate(&t).into_iter().take(20) {
                let ctx = concrete_ctx(&t, &e, &[]);
                let fast = m.ppo(&mut alg, &ctx);
                // A far larger round budget must not add any edges.
                let slow = m.ppo_with_rounds(&mut alg, &ctx, 8 * ctx.n + 32);
                assert_eq!(fast, slow);
            }
        }
    }
}
