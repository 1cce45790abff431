//! The provers' shared II walk (`prove_min_ii`) driven by a scripted
//! prover: every branch of the per-II decision — infeasible, limit hit,
//! feasible — with the bounds, budgets, counters and observer brackets
//! each one produces, independent of any real search.

use ims_core::{
    prove_min_ii, BackendKind, IiBounds, IiDecision, IiProver, Problem, ProblemBuilder,
    ProverOutcome, SchedConfig, SchedObserver, Schedule,
};
use ims_graph::DepKind;
use ims_ir::{OpId, Opcode};
use ims_machine::figure1_machine;
use ims_prof::{MetricsRegistry, ProfSink};

/// A prover that answers every II with one scripted decision and
/// charges `work` per call, recording the budgets it was offered.
struct Scripted {
    answer: IiDecision,
    work: u64,
    budgets: std::cell::RefCell<Vec<u64>>,
}

impl IiProver for Scripted {
    const KIND: BackendKind = BackendKind::Exact;
    const IIS_SEARCHED: &'static str = "t.searched";
    const IIS_INFEASIBLE: &'static str = "t.infeasible";
    const LIMIT_HITS: &'static str = "t.limit";

    fn decide_ii<P: ProfSink>(
        &self,
        _: &Problem<'_>,
        _: i64,
        budget: u64,
        _: &mut P,
    ) -> (IiDecision, u64) {
        self.budgets.borrow_mut().push(budget);
        (self.answer.clone(), self.work)
    }
}

/// Records `(ii, budget, ok)` per attempt bracket.
#[derive(Default)]
struct Brackets(Vec<(i64, i64, Option<bool>)>);

impl SchedObserver for Brackets {
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.0.push((ii, budget, None));
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        let last = self.0.last_mut().expect("bracket opened");
        assert_eq!(last.0, ii);
        last.2 = Some(ok);
    }
}

/// The paper's Figure 1 loop: MII 5, which the iterative scheduler
/// misses (it settles at 6), so the walk has one candidate II.
fn walk(answer: IiDecision, limit: u64) -> (ProverOutcome, Brackets, MetricsRegistry, Vec<u64>) {
    let m = figure1_machine();
    let mut pb = ProblemBuilder::new(&m);
    let mul = pb.add_op(Opcode::Mul, OpId(0));
    let add = pb.add_op(Opcode::Add, OpId(1));
    pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
    pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
    let p = pb.finish();
    let prover = Scripted {
        answer,
        work: 7,
        budgets: Default::default(),
    };
    let (mut obs, mut reg) = (Brackets::default(), MetricsRegistry::new());
    let heuristic = SchedConfig::with_budget_ratio(6.0);
    let out = prove_min_ii(&p, &heuristic, Some(limit), &prover, &mut obs, &mut reg)
        .expect("the heuristic run succeeds");
    (out, obs, reg, prover.budgets.into_inner())
}

#[test]
fn infeasible_candidates_prove_the_heuristic_optimal() {
    let (out, obs, reg, budgets) = walk(IiDecision::Infeasible, 100);
    assert_eq!((out.mii.mii, out.ims_ii), (5, 6));
    assert_eq!(out.bounds, IiBounds::exact(6));
    assert_eq!((out.work, out.limit_hit), (7, false));
    assert_eq!(budgets, [100]);
    assert_eq!(obs.0, [(5, 100, Some(false)), (6, 0, Some(true))]);
    assert_eq!(reg.counter("t.searched"), 1);
    assert_eq!(reg.counter("t.infeasible"), 1);
    assert_eq!(reg.counter("t.limit"), 0);
}

#[test]
fn a_limit_hit_leaves_an_open_interval() {
    let (out, obs, reg, _) = walk(IiDecision::LimitHit, 100);
    assert_eq!(
        out.bounds,
        IiBounds {
            proved_lb: 5,
            best_ub: 6
        }
    );
    assert!(out.limit_hit);
    assert_eq!(out.schedule.ii, 6, "falls back to the heuristic schedule");
    assert_eq!(obs.0, [(5, 100, Some(false)), (6, 0, Some(true))]);
    assert_eq!(reg.counter("t.limit"), 1);
}

#[test]
fn the_first_feasible_ii_is_returned_inside_its_attempt() {
    let found = Schedule {
        ii: 5,
        time: vec![0; 4],
        alternative: vec![0; 4],
        length: 9,
    };
    let (out, obs, _, _) = walk(IiDecision::Feasible(found.clone()), 100);
    assert_eq!(out.schedule, found);
    assert_eq!(out.bounds, IiBounds::exact(5));
    assert_eq!(obs.0, [(5, 100, Some(true))], "no fallback bracket");
}
