//! Profiled corpus measurement: identical measurements and traces, and
//! thread-count-independent deterministic snapshot sections.

use std::path::Path;

use ims_bench::{corpus_jsonl, measure_corpus, LoopMeasurement, Run};
use ims_core::BackendKind;
use ims_loopgen::{corpus_of_size, Corpus};
use ims_machine::{cydra, cydra_rf, MachineModel};
use ims_prof::snapshot::{deterministic_section, render_snapshot};
use ims_prof::{phase, MetricsRegistry};

/// Measures `corpus` with `run`, plain (no profile) or into a fresh
/// registry.
fn measure(
    corpus: &Corpus,
    machine: &MachineModel,
    run: &Run,
    threads: usize,
    trace: Option<&Path>,
    profile: bool,
) -> (Vec<LoopMeasurement>, MetricsRegistry) {
    let mut reg = MetricsRegistry::new();
    let trace = trace.map(|dir| (dir, ""));
    let ms = measure_corpus(corpus, machine, run, threads, trace, profile.then_some(&mut reg))
        .expect("trace I/O succeeds");
    (ms, reg)
}

/// The acceptance gate of the profiler issue: a 60-loop profiled corpus
/// run must produce (a) exactly the measurements of the unprofiled run
/// and (b) snapshot deterministic sections that are byte-identical at
/// `--threads 1` and `--threads 4`; only the wall section may differ.
#[test]
fn profiling_never_changes_measurements_and_is_thread_count_invariant() {
    let corpus = corpus_of_size(0xC4D5, 60);
    let machine = cydra();

    let run = Run::ims(6.0);
    let (plain, _) = measure(&corpus, &machine, &run, 2, None, false);
    let (m1, r1) = measure(&corpus, &machine, &run, 1, None, true);
    let (m4, r4) = measure(&corpus, &machine, &run, 4, None, true);

    assert_eq!(corpus_jsonl(&plain), corpus_jsonl(&m1), "profiling changed a measurement");
    assert_eq!(corpus_jsonl(&m1), corpus_jsonl(&m4));

    let s1 = render_snapshot("corpus", &r1);
    let s4 = render_snapshot("corpus", &r4);
    let d1 = deterministic_section(&s1).expect("snapshot has a deterministic section");
    let d4 = deterministic_section(&s4).expect("snapshot has a deterministic section");
    assert_eq!(d1, d4, "deterministic sections must not depend on --threads");

    // Every pipeline layer reported in: graph analysis, scheduling, MRT
    // probes, code generation, and the VLIW simulator.
    for phase in [
        phase::GRAPH_SCC_WORK,
        phase::GRAPH_MINDIST_WORK,
        phase::MACHINE_MRT_PROBES,
        phase::SCHED_FINDSLOT_ITERS,
        phase::SCHED_STEPS,
        phase::SCHED_ATTEMPTS,
        phase::CODEGEN_INSTS,
        phase::VLIW_SIM_CYCLES,
    ] {
        assert!(r1.counter(phase) > 0, "no work recorded under {phase}");
    }
    assert_eq!(r1.counter(phase::CORPUS_LOOPS), corpus.loops.len() as u64);
    let slots = r1.hist(phase::HIST_SLOT_SEARCH).expect("slot-search histogram");
    assert_eq!(slots.total(), r1.counter(phase::SCHED_STEPS));
    assert_eq!(
        slots.sum(),
        r1.counter(phase::SCHED_FINDSLOT_ITERS) as i128,
        "per-step histogram must sum to the Table 4 counter"
    );
    let estart = r1.hist(phase::HIST_ESTART_PREDS).expect("estart histogram");
    assert!(estart.total() >= slots.total(), "START/STOP fire estart but not slot_search");
    // Wall spans exist but never leak into the deterministic sections.
    assert!(r1.wall(phase::WALL_LOOP).is_some());
    assert!(!d1.contains("total_ns"));
}

/// Profiling is invisible for every backend and mode a driver can run:
/// the iterative scheduler, both provers, and the pressure-aware
/// scheduler measure byte-identically with and without a profile, and
/// each files its own deterministic work.
#[test]
fn every_run_profiles_without_changing_measurements() {
    let corpus = corpus_of_size(5, 12);
    let runs = [
        (Run::ims(6.0), cydra()),
        (Run::new(BackendKind::Exact, 6.0).work_limit(Some(200_000)), cydra()),
        (Run::new(BackendKind::Sat, 6.0).work_limit(Some(10_000)), cydra()),
        (Run::ims(6.0).pressure_limit(Some(16)), cydra_rf(16)),
    ];
    for (run, machine) in runs {
        let (plain, _) = measure(&corpus, &machine, &run, 2, None, false);
        let (ms, reg) = measure(&corpus, &machine, &run, 2, None, true);
        assert_eq!(corpus_jsonl(&plain), corpus_jsonl(&ms), "{run:?}");
        assert_eq!(reg.counter(phase::CORPUS_LOOPS), corpus.loops.len() as u64, "{run:?}");
        // Every profiled run also lowers and simulates each loop.
        assert!(reg.counter(phase::CODEGEN_INSTS) > 0, "{run:?}");
        assert!(reg.counter(phase::VLIW_SIM_CYCLES) > 0, "{run:?}");

        let work: u64 = ms.iter().map(|m| m.exact.map_or(0, |e| e.nodes)).sum();
        match (run.backend, run.pressure_limit) {
            (BackendKind::Exact, _) => {
                assert_eq!(reg.counter(phase::EXACT_NODES), work, "search nodes accounted for");
            }
            (BackendKind::Sat, _) => {
                assert_eq!(reg.counter(phase::SAT_CONFLICTS), work, "conflicts accounted for");
            }
            (BackendKind::Ims, Some(_)) => {
                assert!(reg.counter(phase::PRESS_MAXLIVE_UPDATES) > 0);
            }
            (BackendKind::Ims, None) => {
                let steps: u64 = ms.iter().map(|m| m.total_steps).sum();
                assert_eq!(reg.counter(phase::SCHED_STEPS), steps);
            }
        }
    }
}

#[test]
fn profiled_traces_are_byte_identical_to_unprofiled_traces() {
    let corpus = corpus_of_size(7, 8);
    let machine = cydra();
    let base = std::env::temp_dir().join(format!("ims_profile_trace_{}", std::process::id()));
    let plain_dir = base.join("plain");
    let prof_dir = base.join("profiled");

    let run = Run::ims(6.0);
    measure(&corpus, &machine, &run, 2, Some(&plain_dir), false);
    measure(&corpus, &machine, &run, 2, Some(&prof_dir), true);

    let mut names: Vec<_> = std::fs::read_dir(&plain_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert_eq!(names.len(), corpus.loops.len());
    for name in names {
        let a = std::fs::read(plain_dir.join(&name)).unwrap();
        let b = std::fs::read(prof_dir.join(&name)).unwrap();
        assert_eq!(a, b, "trace {name:?} differs under profiling");
    }
    std::fs::remove_dir_all(&base).ok();
}
