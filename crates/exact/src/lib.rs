#![deny(missing_docs)]

//! Exact modulo scheduling by branch-and-bound.
//!
//! The paper's iterative scheduler is a heuristic: when it achieves the
//! MII it is provably optimal, but when it settles for a larger II nothing
//! says a smaller one was impossible — maybe the budget just ran out. This
//! crate answers that question exactly. [`schedule_exact`] first runs the
//! iterative scheduler (with a generous budget) to obtain an upper bound
//! and a fallback schedule, then walks candidate IIs upward from the MII,
//! deciding each one *exhaustively* with the branch-and-bound search in
//! [`mod@self`] (see the `search` module docs for the pruning rules:
//! MinDist windows over an SCC-topological scheduling order, modulo
//! reservation conflicts, and failed-state memoization). The first
//! feasible II is optimal by construction.
//!
//! Exhaustive search is exponential in the worst case, so the search is
//! metered by a deterministic node budget ([`ExactConfig::node_limit`]).
//! When it runs out the scheduler degrades gracefully — it returns the
//! iterative schedule plus explicit [`IiBounds`] recording exactly which
//! IIs were proven infeasible (`proved_lb`) and the best schedule in hand
//! (`best_ub`), never a hang and never a silent claim of optimality. The
//! walk over candidate IIs is ims-core's [`prove_min_ii`], shared with
//! the SAT prover; this crate supplies only the per-II search.
//!
//! The crate plugs into the workspace through the
//! [`SchedulerBackend`] seam: [`ExactBackend`] produces the same
//! [`Schedule`] type as the iterative backend, so the validator, kernel
//! code generation, and the VLIW simulator consume its output unchanged.
//!
//! ```
//! use ims_core::{ProblemBuilder, validate_schedule};
//! use ims_exact::{schedule_exact, ExactConfig};
//! use ims_graph::DepKind;
//! use ims_ir::{OpId, Opcode};
//! use ims_machine::minimal;
//!
//! let m = minimal();
//! let mut pb = ProblemBuilder::new(&m);
//! let a = pb.add_op(Opcode::Add, OpId(0));
//! let b = pb.add_op(Opcode::Mul, OpId(1));
//! pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
//! pb.add_dep(b, a, 1, 1, DepKind::Flow, false); // loop-carried
//! let problem = pb.finish();
//!
//! let out = schedule_exact(&problem, &ExactConfig::default())?;
//! assert!(out.optimal());
//! assert_eq!(out.schedule.ii, out.bounds.proved_lb);
//! assert!(validate_schedule(&problem, &out.schedule).is_ok());
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

use ims_core::{
    prove_min_ii, BackendKind, BackendOutcome, BackendParams, BackendRegistry, IiBounds,
    IiDecision, IiProver, MiiInfo, NullObserver, Problem, ProverOutcome, SchedConfig,
    SchedObserver, Schedule, ScheduleError, SchedulerBackend,
};
use ims_prof::{phase, NullSink, ProfSink};

mod search;

/// Configuration for the exact scheduler.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Configuration for the internal iterative-scheduler run that
    /// supplies the upper bound and the fallback schedule. Defaults to
    /// BudgetRatio 6 (the paper's quality setting) so the search window
    /// between MII and the heuristic II is as small as possible.
    pub heuristic: SchedConfig,
    /// Budget of branch-and-bound nodes (placements tried) across all
    /// candidate IIs. `None` is unlimited. The default (`2^22`) decides
    /// every corpus loop in well under a second.
    pub node_limit: Option<u64>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            heuristic: SchedConfig::with_budget_ratio(6.0),
            node_limit: Some(1 << 22),
        }
    }
}

impl ExactConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the internal iterative-scheduler configuration.
    pub fn heuristic(mut self, heuristic: SchedConfig) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Sets the branch-and-bound node budget (`None` for unlimited).
    pub fn node_limit(mut self, node_limit: Option<u64>) -> Self {
        self.node_limit = node_limit;
        self
    }
}

/// The result of [`schedule_exact`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOutcome {
    /// The best legal schedule in hand: II-optimal when
    /// [`optimal`](ExactOutcome::optimal), otherwise the iterative
    /// scheduler's fallback at `ims_ii`.
    pub schedule: Schedule,
    /// The MII bounds computed by the internal iterative run.
    pub mii: MiiInfo,
    /// What was proven about the true minimum II: exact when the search
    /// completed, a `[proved_lb, best_ub]` interval when a limit hit.
    pub bounds: IiBounds,
    /// Branch-and-bound nodes spent (0 when the heuristic already
    /// achieved the MII and no search was needed).
    pub nodes: u64,
    /// Whether the node budget aborted the search before it
    /// could decide every II below `ims_ii`.
    pub limit_hit: bool,
    /// The II the internal iterative scheduler achieved — the yardstick
    /// for the optimality gap `ims_ii − bounds.best_ub`.
    pub ims_ii: i64,
}

impl ExactOutcome {
    /// Whether `schedule` is proven II-optimal.
    pub fn optimal(&self) -> bool {
        self.bounds.is_exact()
    }
}

impl From<ProverOutcome> for ExactOutcome {
    fn from(out: ProverOutcome) -> Self {
        ExactOutcome {
            schedule: out.schedule,
            mii: out.mii,
            bounds: out.bounds,
            nodes: out.work,
            limit_hit: out.limit_hit,
            ims_ii: out.ims_ii,
        }
    }
}

impl From<ExactOutcome> for BackendOutcome {
    fn from(out: ExactOutcome) -> Self {
        BackendOutcome {
            schedule: out.schedule,
            mii: out.mii,
            bounds: out.bounds,
            steps: out.nodes,
        }
    }
}

/// The branch-and-bound search as the shared walk's decide-one-II step;
/// its work unit is the search node.
struct BranchAndBound;

impl IiProver for BranchAndBound {
    const KIND: BackendKind = BackendKind::Exact;
    const IIS_SEARCHED: &'static str = phase::EXACT_IIS_SEARCHED;
    const IIS_INFEASIBLE: &'static str = phase::EXACT_IIS_INFEASIBLE;
    const LIMIT_HITS: &'static str = phase::EXACT_LIMIT_HITS;

    fn decide_ii<P: ProfSink>(
        &self,
        problem: &Problem<'_>,
        ii: i64,
        budget: u64,
        prof: &mut P,
    ) -> (IiDecision, u64) {
        search::search_ii(problem, ii, budget, prof)
    }
}

/// Schedules `problem` exactly: the returned schedule's II is proven
/// minimal unless a limit hit, in which case `bounds` says how much is
/// still open. See the crate docs for the algorithm.
///
/// # Errors
///
/// Forwards the internal iterative run's [`ScheduleError`]; the
/// branch-and-bound phase itself cannot fail (it degrades to the
/// iterative schedule).
pub fn schedule_exact(
    problem: &Problem<'_>,
    config: &ExactConfig,
) -> Result<ExactOutcome, ScheduleError> {
    schedule_exact_profiled(problem, config, &mut NullObserver, &mut NullSink)
}

/// [`schedule_exact`] with scheduler events reported to `observer` and
/// deterministic search statistics to `prof`.
///
/// The observer sees the walk described in [`prove_min_ii`]: one
/// `attempt_start` / `attempt_done` bracket per candidate II searched
/// (its `budget` is the remaining node budget), with the final
/// schedule's placements inside its attempt, so trace replay
/// reconstructs the exact schedule just as it does for the iterative
/// scheduler. `prof` receives branch-and-bound nodes, memoization
/// hits/inserts, prune reasons, candidate-II outcomes, and the
/// MinDist/SCC/MRT work the search performs, keyed by the profiler's
/// phase names (`exact.*`, `graph.*`, `machine.mrt.probes`). Passing
/// `NullObserver` and `NullSink` makes this exactly [`schedule_exact`].
///
/// # Errors
///
/// As [`schedule_exact`].
pub fn schedule_exact_profiled<O: SchedObserver, P: ProfSink>(
    problem: &Problem<'_>,
    config: &ExactConfig,
    observer: &mut O,
    prof: &mut P,
) -> Result<ExactOutcome, ScheduleError> {
    prove_min_ii(problem, &config.heuristic, config.node_limit, &BranchAndBound, observer, prof)
        .map(ExactOutcome::from)
}

/// The exact scheduler as a [`SchedulerBackend`].
///
/// `steps` in the returned [`BackendOutcome`] counts branch-and-bound
/// nodes; `bounds` is exact unless the configured limits aborted the
/// search.
#[derive(Debug, Clone, Default)]
pub struct ExactBackend {
    config: ExactConfig,
}

impl ExactBackend {
    /// A backend running with the given configuration.
    pub fn new(config: ExactConfig) -> Self {
        ExactBackend { config }
    }

    /// The configuration this backend schedules with.
    pub fn config(&self) -> &ExactConfig {
        &self.config
    }
}

impl SchedulerBackend for ExactBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    fn schedule(&self, problem: &Problem<'_>) -> Result<BackendOutcome, ScheduleError> {
        schedule_exact(problem, &self.config).map(BackendOutcome::from)
    }

    fn schedule_observed_dyn(
        &self,
        problem: &Problem<'_>,
        mut observer: &mut dyn SchedObserver,
    ) -> Result<BackendOutcome, ScheduleError> {
        schedule_exact_profiled(problem, &self.config, &mut observer, &mut NullSink)
            .map(BackendOutcome::from)
    }
}

/// Registers the branch-and-bound backend under [`BackendKind::Exact`].
/// The factory maps [`BackendParams::sched`] to the heuristic
/// configuration and [`BackendParams::node_limit`] (when set) to the
/// node budget.
pub fn register(reg: &mut BackendRegistry) {
    reg.register(BackendKind::Exact, |params: &BackendParams| {
        let mut config = ExactConfig::new().heuristic(params.sched.clone());
        if params.node_limit.is_some() {
            config = config.node_limit(params.node_limit);
        }
        Box::new(ExactBackend::new(config))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{validate_schedule, ProblemBuilder};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{figure1_machine, minimal};

    /// The Figure 1 loop of the paper: a mul/add recurrence of delay 9 at
    /// distance 2 (RecMII 5), which the iterative scheduler schedules at
    /// II 6 after a failed attempt at 5.
    fn figure1_problem(machine: &ims_machine::MachineModel) -> Problem<'_> {
        let mut pb = ProblemBuilder::new(machine);
        let mul = pb.add_op(Opcode::Mul, OpId(0));
        let add = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
        pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
        pb.finish()
    }

    #[test]
    fn figure1_is_decided_exactly() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let out = schedule_exact(&p, &ExactConfig::default()).unwrap();
        assert_eq!(out.mii.mii, 5);
        assert!(!out.limit_hit);
        assert!(out.optimal(), "search must decide every II: {:?}", out.bounds);
        assert!(out.nodes > 0, "IMS misses the MII here, so a search ran");
        assert_eq!(out.schedule.ii, out.bounds.best_ub);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        assert!(out.schedule.ii <= out.ims_ii);
        assert!(out.schedule.ii >= out.mii.mii);
    }

    #[test]
    fn mii_short_circuit_spends_no_nodes() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Mul, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();
        let out = schedule_exact(&p, &ExactConfig::default()).unwrap();
        assert!(out.optimal());
        assert_eq!(out.nodes, 0, "heuristic hit the MII; no search needed");
        assert_eq!(out.schedule.ii, out.mii.mii);
        assert_eq!(out.ims_ii, out.mii.mii);
    }

    #[test]
    fn node_limit_degrades_to_bounds_and_ims_schedule() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let out = schedule_exact(&p, &ExactConfig::new().node_limit(Some(1))).unwrap();
        assert!(out.limit_hit);
        assert!(!out.optimal());
        assert_eq!(out.bounds.proved_lb, out.mii.mii, "nothing decided yet");
        assert_eq!(out.bounds.best_ub, out.ims_ii);
        assert_eq!(out.schedule.ii, out.ims_ii, "fell back to the IMS schedule");
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn profiled_search_reports_deterministic_statistics() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let mut reg = ims_prof::MetricsRegistry::new();
        let out =
            schedule_exact_profiled(&p, &ExactConfig::default(), &mut NullObserver, &mut reg)
                .unwrap();
        assert_eq!(reg.counter(phase::EXACT_NODES), out.nodes);
        assert!(reg.counter(phase::EXACT_IIS_SEARCHED) >= 1);
        assert!(reg.counter(phase::GRAPH_MINDIST_WORK) > 0);
        assert!(reg.counter(phase::MACHINE_MRT_PROBES) > 0);
        // Identical runs produce identical registries: every statistic the
        // search reports is deterministic.
        let mut again = ims_prof::MetricsRegistry::new();
        let _ = schedule_exact_profiled(&p, &ExactConfig::default(), &mut NullObserver, &mut again)
            .unwrap();
        assert_eq!(reg, again);
        // The unprofiled entry point is unchanged by profiling.
        let plain = schedule_exact(&p, &ExactConfig::default()).unwrap();
        assert_eq!(plain.schedule, out.schedule);
        assert_eq!(plain.nodes, out.nodes);
    }

    #[test]
    fn exact_backend_reports_kind_and_matches_schedule_exact() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let backend: Box<dyn SchedulerBackend> = Box::new(ExactBackend::default());
        assert_eq!(backend.kind(), BackendKind::Exact);
        let out = backend.schedule(&p).unwrap();
        let reference = schedule_exact(&p, &ExactConfig::default()).unwrap();
        assert_eq!(out.schedule, reference.schedule);
        assert_eq!(out.bounds, reference.bounds);
        assert_eq!(out.steps, reference.nodes);
    }

    #[test]
    fn observer_sees_exact_backend_and_replayable_placements() {
        #[derive(Default)]
        struct Spy {
            backend: Option<BackendKind>,
            attempts: Vec<(i64, bool)>,
            placed: Vec<(u32, i64)>,
        }
        impl SchedObserver for Spy {
            fn backend(&mut self, kind: BackendKind) {
                self.backend = Some(kind);
            }
            fn attempt_start(&mut self, ii: i64, _budget: i64) {
                self.attempts.push((ii, false));
            }
            fn attempt_done(&mut self, ii: i64, ok: bool) {
                let last = self.attempts.last_mut().unwrap();
                assert_eq!(last.0, ii, "attempt brackets nest properly");
                last.1 = ok;
            }
            fn op_scheduled(&mut self, node: ims_graph::NodeId, time: i64, _: usize, _: bool) {
                self.placed.push((node.0, time));
            }
        }

        let m = figure1_machine();
        let p = figure1_problem(&m);
        let mut spy = Spy::default();
        let out =
            schedule_exact_profiled(&p, &ExactConfig::default(), &mut spy, &mut NullSink).unwrap();
        assert_eq!(spy.backend, Some(BackendKind::Exact));
        let last = spy.attempts.last().unwrap();
        assert_eq!(*last, (out.schedule.ii, true), "final attempt succeeded");
        // The trailing placement burst reconstructs the final schedule.
        let n = out.schedule.time.len();
        let tail = &spy.placed[spy.placed.len() - n..];
        for (idx, &(node, time)) in tail.iter().enumerate() {
            assert_eq!(node as usize, idx);
            assert_eq!(time, out.schedule.time[idx]);
        }
    }
}
