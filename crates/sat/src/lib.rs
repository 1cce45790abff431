#![deny(missing_docs)]

//! Exact modulo scheduling by reduction to SAT.
//!
//! This crate is the branch-and-bound backend's twin with a different
//! proof engine: [`schedule_sat`] runs ims-core's shared II walk
//! ([`prove_min_ii`]) — the iterative scheduler for an upper bound and
//! fallback, then candidate IIs upward from the MII — deciding each one
//! by encoding "∃ legal schedule at this II?" into CNF (see the `encode`
//! module docs for the variable layout and clause families) and handing
//! the formula to a small, deterministic, std-only CDCL solver (`solver`
//! module: two-watched literals, 1-UIP conflict-clause learning, Luby
//! restarts, activity-ordered decisions tie-broken by variable id). The
//! first satisfiable II is optimal by construction, and an UNSAT answer
//! is a *proof* of infeasibility — the same contract branch-and-bound
//! offers, which is what makes the two backends cross-checkable loop by
//! loop.
//!
//! SAT can blow up, so every per-II decision is metered three ways:
//! a conflict budget shared across the II walk
//! ([`SatConfig::conflict_limit`]), a cap on emitted clauses
//! ([`SatConfig::clause_limit`]), and a cap on the summed issue-window
//! width ([`SatConfig::slot_limit`]). When any cap hits, the scheduler
//! degrades exactly like the exact backend: the iterative schedule comes
//! back with explicit [`IiBounds`] recording which IIs were proven
//! infeasible. All budgets are deterministic — no deadlines — so output
//! is byte-reproducible at any thread count.
//!
//! The crate also assembles the workspace's *full* backend registry:
//! [`default_registry`] returns a [`BackendRegistry`] with `ims`,
//! `exact`, and `sat` registered, ready to resolve any
//! [`BackendSpec`](ims_core::BackendSpec) including
//! `portfolio(ims,exact,sat)`.
//!
//! ```
//! use ims_core::{ProblemBuilder, validate_schedule};
//! use ims_sat::{schedule_sat, SatConfig};
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
//! let out = schedule_sat(&problem, &SatConfig::default())?;
//! assert!(out.optimal());
//! assert!(validate_schedule(&problem, &out.schedule).is_ok());
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

use ims_core::{
    prove_min_ii, BackendKind, BackendOutcome, BackendParams, BackendRegistry, IiBounds,
    IiDecision, IiProver, MiiInfo, NullObserver, Problem, ProverOutcome, SchedConfig,
    SchedObserver, Schedule, ScheduleError, SchedulerBackend,
};
use ims_prof::{phase, NullSink, ProfSink};

mod encode;
mod solver;

use encode::{decide_ii, SatLimits};

/// Configuration for the SAT scheduler.
#[derive(Debug, Clone)]
pub struct SatConfig {
    /// Configuration for the internal iterative-scheduler run that
    /// supplies the upper bound and the fallback schedule. Defaults to
    /// BudgetRatio 6, the paper's quality setting, to keep the window
    /// between MII and the heuristic II small.
    pub heuristic: SchedConfig,
    /// Budget of CDCL conflicts across all candidate IIs. `None` is
    /// unlimited. Conflicts are deterministic, so — unlike a wall-clock
    /// deadline — the same budget always aborts at the same point.
    pub conflict_limit: Option<u64>,
    /// Cap on clauses emitted for a single per-II encoding; exceeding it
    /// counts as a limit hit rather than an out-of-memory surprise.
    pub clause_limit: Option<u64>,
    /// Cap on the summed issue-window width of a single per-II encoding
    /// (the dominant term of the variable count).
    pub slot_limit: Option<u64>,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            heuristic: SchedConfig::with_budget_ratio(6.0),
            conflict_limit: Some(1 << 18),
            clause_limit: Some(2_000_000),
            slot_limit: Some(65_536),
        }
    }
}

impl SatConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the internal iterative-scheduler configuration.
    pub fn heuristic(mut self, heuristic: SchedConfig) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Sets the CDCL conflict budget (`None` for unlimited).
    pub fn conflict_limit(mut self, conflict_limit: Option<u64>) -> Self {
        self.conflict_limit = conflict_limit;
        self
    }

    /// Sets the per-II clause cap (`None` for unlimited).
    pub fn clause_limit(mut self, clause_limit: Option<u64>) -> Self {
        self.clause_limit = clause_limit;
        self
    }

    /// Sets the per-II summed-window cap (`None` for unlimited).
    pub fn slot_limit(mut self, slot_limit: Option<u64>) -> Self {
        self.slot_limit = slot_limit;
        self
    }
}

/// The result of [`schedule_sat`].
#[derive(Debug, Clone, PartialEq)]
pub struct SatOutcome {
    /// The best legal schedule in hand: II-optimal when
    /// [`optimal`](SatOutcome::optimal), otherwise the iterative
    /// scheduler's fallback at `ims_ii`.
    pub schedule: Schedule,
    /// The MII bounds computed by the internal iterative run.
    pub mii: MiiInfo,
    /// What was proven about the true minimum II: exact when every
    /// candidate was decided, a `[proved_lb, best_ub]` interval when a
    /// cap hit.
    pub bounds: IiBounds,
    /// CDCL conflicts spent (0 when the heuristic already achieved the
    /// MII and no formula was ever built).
    pub conflicts: u64,
    /// Whether a conflict/clause/slot cap aborted the walk before every
    /// II below `ims_ii` was decided.
    pub limit_hit: bool,
    /// The II the internal iterative scheduler achieved — the yardstick
    /// for the optimality gap `ims_ii − bounds.best_ub`.
    pub ims_ii: i64,
}

impl SatOutcome {
    /// Whether `schedule` is proven II-optimal.
    pub fn optimal(&self) -> bool {
        self.bounds.is_exact()
    }
}

impl From<ProverOutcome> for SatOutcome {
    fn from(out: ProverOutcome) -> Self {
        SatOutcome {
            schedule: out.schedule,
            mii: out.mii,
            bounds: out.bounds,
            conflicts: out.work,
            limit_hit: out.limit_hit,
            ims_ii: out.ims_ii,
        }
    }
}

impl From<SatOutcome> for BackendOutcome {
    fn from(out: SatOutcome) -> Self {
        BackendOutcome {
            schedule: out.schedule,
            mii: out.mii,
            bounds: out.bounds,
            steps: out.conflicts,
        }
    }
}

/// The CNF encoding plus CDCL solve as the shared walk's decide-one-II
/// step; its work unit is the conflict, and the clause and slot caps
/// apply to each per-II encoding.
struct Cdcl {
    clause_limit: u64,
    slot_limit: u64,
}

impl IiProver for Cdcl {
    const KIND: BackendKind = BackendKind::Sat;
    const IIS_SEARCHED: &'static str = phase::SAT_IIS_SEARCHED;
    const IIS_INFEASIBLE: &'static str = phase::SAT_IIS_INFEASIBLE;
    const LIMIT_HITS: &'static str = phase::SAT_LIMIT_HITS;

    fn decide_ii<P: ProfSink>(
        &self,
        problem: &Problem<'_>,
        ii: i64,
        budget: u64,
        prof: &mut P,
    ) -> (IiDecision, u64) {
        let limits = SatLimits {
            conflict_budget: budget,
            clause_limit: self.clause_limit,
            slot_limit: self.slot_limit,
        };
        decide_ii(problem, ii, &limits, prof)
    }
}

/// Schedules `problem` exactly by SAT: the returned schedule's II is
/// proven minimal unless a cap hit, in which case `bounds` says how much
/// is still open. See the crate docs for the algorithm.
///
/// # Errors
///
/// Forwards the internal iterative run's [`ScheduleError`]; the SAT
/// phase itself cannot fail (it degrades to the iterative schedule).
pub fn schedule_sat(problem: &Problem<'_>, config: &SatConfig) -> Result<SatOutcome, ScheduleError> {
    schedule_sat_profiled(problem, config, &mut NullObserver, &mut NullSink)
}

/// [`schedule_sat`] with scheduler events reported to `observer` and
/// deterministic solver statistics to `prof`.
///
/// The observer sees the walk described in [`prove_min_ii`]: one
/// `attempt_start` / `attempt_done` bracket per candidate II decided
/// (its `budget` is the remaining conflict budget), with the final
/// schedule's placements inside its attempt — the same replayable shape
/// the other backends emit. `prof` receives variables, clauses,
/// conflicts, decisions, propagations, restarts, and candidate-II
/// outcomes, keyed by the profiler's `sat.*` phase names (plus the
/// `graph.*` work the encoder performs). Passing `NullObserver` and
/// `NullSink` makes this exactly [`schedule_sat`].
///
/// # Errors
///
/// As [`schedule_sat`].
pub fn schedule_sat_profiled<O: SchedObserver, P: ProfSink>(
    problem: &Problem<'_>,
    config: &SatConfig,
    observer: &mut O,
    prof: &mut P,
) -> Result<SatOutcome, ScheduleError> {
    let prover = Cdcl {
        clause_limit: config.clause_limit.unwrap_or(u64::MAX),
        slot_limit: config.slot_limit.unwrap_or(u64::MAX),
    };
    prove_min_ii(problem, &config.heuristic, config.conflict_limit, &prover, observer, prof)
        .map(SatOutcome::from)
}

/// The SAT scheduler as a [`SchedulerBackend`].
///
/// `steps` in the returned [`BackendOutcome`] counts CDCL conflicts;
/// `bounds` is exact unless the configured caps aborted the walk.
#[derive(Debug, Clone, Default)]
pub struct SatBackend {
    config: SatConfig,
}

impl SatBackend {
    /// A backend running with the given configuration.
    pub fn new(config: SatConfig) -> Self {
        SatBackend { config }
    }

    /// The configuration this backend schedules with.
    pub fn config(&self) -> &SatConfig {
        &self.config
    }
}

impl SchedulerBackend for SatBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sat
    }

    fn schedule(&self, problem: &Problem<'_>) -> Result<BackendOutcome, ScheduleError> {
        schedule_sat(problem, &self.config).map(BackendOutcome::from)
    }

    fn schedule_observed_dyn(
        &self,
        problem: &Problem<'_>,
        mut observer: &mut dyn SchedObserver,
    ) -> Result<BackendOutcome, ScheduleError> {
        schedule_sat_profiled(problem, &self.config, &mut observer, &mut NullSink)
            .map(BackendOutcome::from)
    }
}

/// Registers the SAT backend under [`BackendKind::Sat`]. The factory
/// maps [`BackendParams::sched`] to the heuristic configuration and
/// [`BackendParams::conflict_limit`] (when set) to the conflict budget.
pub fn register(reg: &mut BackendRegistry) {
    reg.register(BackendKind::Sat, |params: &BackendParams| {
        let mut config = SatConfig::new().heuristic(params.sched.clone());
        if params.conflict_limit.is_some() {
            config = config.conflict_limit(params.conflict_limit);
        }
        Box::new(SatBackend::new(config))
    });
}

/// The workspace's full backend registry: `ims` (pre-registered by
/// [`BackendRegistry::new`]), `exact`, and `sat` — everything a
/// [`BackendSpec`](ims_core::BackendSpec), portfolio or leaf, can name.
pub fn default_registry() -> BackendRegistry {
    let mut reg = BackendRegistry::new();
    ims_exact::register(&mut reg);
    register(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{validate_schedule, BackendSpec, PortfolioBackend, ProblemBuilder};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{figure1_machine, minimal};

    /// The Figure 1 loop of the paper: a mul/add recurrence of delay 9 at
    /// distance 2 (RecMII 5), which the iterative scheduler schedules at
    /// II 6 after a failed attempt at 5 — and 6 is in fact optimal (the
    /// recurrence loses the shared result bus at 5), so the walk must
    /// *prove* the infeasibility of 5, not merely give up on it.
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
        let out = schedule_sat(&p, &SatConfig::default()).unwrap();
        assert_eq!(out.mii.mii, 5);
        assert!(!out.limit_hit);
        assert!(out.optimal(), "walk must decide every II: {:?}", out.bounds);
        assert_eq!(out.schedule.ii, 6, "5 is proven infeasible; 6 is optimal");
        assert_eq!(out.schedule.ii, out.bounds.best_ub);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        assert_eq!(out.schedule.ii, out.ims_ii, "IMS was optimal; SAT proves it");
    }

    #[test]
    fn mii_short_circuit_spends_no_conflicts() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Mul, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();
        let out = schedule_sat(&p, &SatConfig::default()).unwrap();
        assert!(out.optimal());
        assert_eq!(out.conflicts, 0, "heuristic hit the MII; no formula built");
        assert_eq!(out.schedule.ii, out.mii.mii);
        assert_eq!(out.ims_ii, out.mii.mii);
    }

    #[test]
    fn starved_clause_cap_degrades_to_bounds_and_ims_schedule() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let out = schedule_sat(&p, &SatConfig::new().clause_limit(Some(1))).unwrap();
        assert!(out.limit_hit);
        assert!(!out.optimal());
        assert_eq!(out.bounds.proved_lb, out.mii.mii, "nothing decided yet");
        assert_eq!(out.bounds.best_ub, out.ims_ii);
        assert_eq!(out.schedule.ii, out.ims_ii, "fell back to the IMS schedule");
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn sat_agrees_with_branch_and_bound_on_figure1() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let sat = schedule_sat(&p, &SatConfig::default()).unwrap();
        let bnb = ims_exact::schedule_exact(&p, &ims_exact::ExactConfig::default()).unwrap();
        assert!(sat.optimal() && bnb.optimal());
        assert_eq!(sat.schedule.ii, bnb.schedule.ii, "two proofs, one optimum");
        assert_eq!(sat.bounds, bnb.bounds);
    }

    #[test]
    fn profiled_runs_report_deterministic_statistics() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let mut reg = ims_prof::MetricsRegistry::new();
        let out =
            schedule_sat_profiled(&p, &SatConfig::default(), &mut NullObserver, &mut reg).unwrap();
        assert!(reg.counter(phase::SAT_VARS) > 0);
        assert!(reg.counter(phase::SAT_CLAUSES) > 0);
        assert!(reg.counter(phase::SAT_IIS_SEARCHED) >= 1);
        // Identical runs produce identical registries: every statistic
        // the solver reports is deterministic.
        let mut again = ims_prof::MetricsRegistry::new();
        let _ =
            schedule_sat_profiled(&p, &SatConfig::default(), &mut NullObserver, &mut again)
                .unwrap();
        assert_eq!(reg, again);
        // The unprofiled entry point is unchanged by profiling.
        let plain = schedule_sat(&p, &SatConfig::default()).unwrap();
        assert_eq!(plain.schedule, out.schedule);
        assert_eq!(plain.conflicts, out.conflicts);
    }

    #[test]
    fn observer_sees_sat_backend_and_replayable_placements() {
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
            schedule_sat_profiled(&p, &SatConfig::default(), &mut spy, &mut NullSink).unwrap();
        assert_eq!(spy.backend, Some(BackendKind::Sat));
        let last = spy.attempts.last().unwrap();
        assert_eq!(*last, (out.schedule.ii, true), "final attempt succeeded");
        let n = out.schedule.time.len();
        let tail = &spy.placed[spy.placed.len() - n..];
        for (idx, &(node, time)) in tail.iter().enumerate() {
            assert_eq!(node as usize, idx);
            assert_eq!(time, out.schedule.time[idx]);
        }
    }

    #[test]
    fn default_registry_resolves_every_leaf_and_the_full_portfolio() {
        let reg = default_registry();
        for kind in BackendKind::ALL {
            assert!(reg.contains(kind), "{} must be registered", kind.name());
        }
        let spec: BackendSpec = "portfolio(ims,exact,sat)".parse().unwrap();
        let params = ims_core::BackendParams::new();
        let backend = reg.resolve(&spec, &params).unwrap();

        let m = figure1_machine();
        let p = figure1_problem(&m);
        let out = backend.schedule(&p).unwrap();
        // All three members land on the optimal II 6 (the exact members
        // prove it); the tie goes to the first member in spec order.
        assert_eq!(out.schedule.ii, 6);
        assert!(out.bounds.is_exact());
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn portfolio_race_is_thread_count_invariant() {
        let reg = default_registry();
        let params = ims_core::BackendParams::new();
        let members: Vec<_> = BackendKind::ALL
            .into_iter()
            .map(|k| (k, reg.make(k, &params).unwrap()))
            .collect();
        let m = figure1_machine();
        let p = figure1_problem(&m);

        let make = |threads: usize| {
            let members: Vec<_> = BackendKind::ALL
                .into_iter()
                .map(|k| (k, reg.make(k, &params).unwrap()))
                .collect();
            PortfolioBackend::new(members).threads(threads)
        };
        drop(members);
        let seq = make(1).schedule(&p).unwrap();
        let par = make(4).schedule(&p).unwrap();
        assert_eq!(seq.schedule, par.schedule);
        assert_eq!(seq.bounds, par.bounds);
        assert_eq!(seq.steps, par.steps);
    }
}
