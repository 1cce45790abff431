//! The exact provers' shared II walk.
//!
//! Rau's `ModuloSchedule` (Figure 2) is one walk: compute the MII, then
//! try II = MII, MII+1, … until an attempt succeeds. The exact provers
//! (branch-and-bound in `ims-exact`, CDCL in `ims-sat`) walk the same
//! way, except that each step is a *decision* — feasible, proven
//! infeasible, or undecided because a work cap ran out — and the walk is
//! bounded above by the iterative scheduler's own II. [`prove_min_ii`] is
//! that walk, written once; a prover supplies only its per-II step
//! through [`IiProver`].
//!
//! The walk runs the iterative scheduler first (for the upper bound and
//! the fallback schedule). When it already achieved the MII the answer is
//! proven and no decision runs. Otherwise every II in `[MII, ims_ii)` is
//! decided in order, sharing one work budget, and the first feasible II
//! is optimal by construction. A limit hit stops the walk with the
//! iterative schedule and explicit [`IiBounds`]; if every candidate is
//! infeasible the iterative schedule was optimal all along.
//!
//! Observer contract: `backend(V::KIND)`, then one `attempt_start` /
//! `attempt_done` bracket per candidate II decided (its `budget` is the
//! remaining work, saturated to `i64::MAX`), with the returned schedule's
//! placements emitted as `op_scheduled` events inside its attempt — the
//! same replayable shape the iterative scheduler emits. Paths that return
//! the iterative schedule emit it as one extra bracket with budget 0. The
//! internal iterative run is not observed.

use ims_graph::NodeId;
use ims_prof::ProfSink;

use crate::backend::{BackendKind, IiBounds};
use crate::mii::MiiInfo;
use crate::observe::SchedObserver;
use crate::problem::Problem;
use crate::sched::{modulo_schedule, SchedConfig, Schedule, ScheduleError};

/// What a prover decided about one candidate II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IiDecision {
    /// A legal schedule exists at this II; here is one.
    Feasible(Schedule),
    /// No legal schedule exists at this II (proven).
    Infeasible,
    /// A work or size cap ran out before a decision; feasibility unknown.
    LimitHit,
}

/// An exact prover's decide-one-II step, plus the names it reports under.
pub trait IiProver {
    /// The backend reported to the observer.
    const KIND: BackendKind;
    /// Profiler counter bumped once per candidate II decided.
    const IIS_SEARCHED: &'static str;
    /// Profiler counter bumped per candidate II proven infeasible.
    const IIS_INFEASIBLE: &'static str;
    /// Profiler counter bumped when a cap stops the walk.
    const LIMIT_HITS: &'static str;

    /// Decides whether `problem` has a legal schedule at `ii`, spending at
    /// most `budget` units of work. Returns the decision and the work
    /// actually spent; deterministic statistics go to `prof`.
    fn decide_ii<P: ProfSink>(
        &self,
        problem: &Problem<'_>,
        ii: i64,
        budget: u64,
        prof: &mut P,
    ) -> (IiDecision, u64);
}

/// The result of [`prove_min_ii`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProverOutcome {
    /// The best legal schedule in hand: II-optimal when `bounds` is
    /// exact, otherwise the iterative scheduler's fallback at `ims_ii`.
    pub schedule: Schedule,
    /// The MII bounds computed by the internal iterative run.
    pub mii: MiiInfo,
    /// What was proven about the true minimum II.
    pub bounds: IiBounds,
    /// Work spent across all decisions (0 when the iterative scheduler
    /// already achieved the MII).
    pub work: u64,
    /// Whether a cap stopped the walk before every II below `ims_ii` was
    /// decided.
    pub limit_hit: bool,
    /// The II the internal iterative scheduler achieved.
    pub ims_ii: i64,
}

/// Walks candidate IIs upward from the MII with `prover`, within
/// `work_limit` units of work in total (`None` is unlimited). See the
/// module docs for the walk and the events `observer` sees.
///
/// # Errors
///
/// Forwards the internal iterative run's [`ScheduleError`]; the walk
/// itself cannot fail (it degrades to the iterative schedule).
pub fn prove_min_ii<V: IiProver, O: SchedObserver, P: ProfSink>(
    problem: &Problem<'_>,
    heuristic: &SchedConfig,
    work_limit: Option<u64>,
    prover: &V,
    observer: &mut O,
    prof: &mut P,
) -> Result<ProverOutcome, ScheduleError> {
    observer.backend(V::KIND);
    let ims = modulo_schedule(problem, heuristic)?;
    let ims_ii = ims.schedule.ii;
    let mii = ims.mii;
    let outcome = |schedule, bounds, work, limit_hit| ProverOutcome {
        schedule,
        mii,
        bounds,
        work,
        limit_hit,
        ims_ii,
    };

    let limit = work_limit.unwrap_or(u64::MAX);
    let mut spent = 0u64;
    // Empty when the heuristic achieved the MII: already proven optimal.
    for ii in mii.mii..ims_ii {
        let remaining = limit.saturating_sub(spent);
        observer.attempt_start(ii, remaining.min(i64::MAX as u64) as i64);
        prof.count(V::IIS_SEARCHED, 1);
        let (decision, work) = prover.decide_ii(problem, ii, remaining, &mut *prof);
        spent += work;
        match decision {
            IiDecision::Feasible(schedule) => {
                emit_ops(observer, &schedule);
                observer.attempt_done(ii, true);
                return Ok(outcome(schedule, IiBounds::exact(ii), spent, false));
            }
            IiDecision::Infeasible => {
                prof.count(V::IIS_INFEASIBLE, 1);
                observer.attempt_done(ii, false);
            }
            IiDecision::LimitHit => {
                prof.count(V::LIMIT_HITS, 1);
                observer.attempt_done(ii, false);
                emit_final(observer, &ims.schedule);
                let bounds = IiBounds {
                    proved_lb: ii,
                    best_ub: ims_ii,
                };
                return Ok(outcome(ims.schedule, bounds, spent, true));
            }
        }
    }

    // Every II below the heuristic's is proven infeasible.
    emit_final(observer, &ims.schedule);
    Ok(outcome(ims.schedule, IiBounds::exact(ims_ii), spent, false))
}

/// Emits a full attempt bracket for an already-final schedule (the MII
/// short-circuit and the fallback paths, where no live attempt is open
/// for the schedule being returned).
fn emit_final<O: SchedObserver>(observer: &mut O, schedule: &Schedule) {
    observer.attempt_start(schedule.ii, 0);
    emit_ops(observer, schedule);
    observer.attempt_done(schedule.ii, true);
}

/// Emits `op_scheduled` for every node of `schedule`, in node order.
fn emit_ops<O: SchedObserver>(observer: &mut O, schedule: &Schedule) {
    for idx in 0..schedule.time.len() {
        observer.op_scheduled(
            NodeId(idx as u32),
            schedule.time[idx],
            schedule.alternative[idx],
            false,
        );
    }
}
