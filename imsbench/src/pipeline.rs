//! `pipeline`: the corpus path, build → schedule → codegen → simulate.
//!
//! Every loop of the reference corpus, in an order drawn from the seed,
//! goes through the public calls of each layer on `cydra`, with the iterative scheduler at BudgetRatio 6 (the
//! paper's setting and the `corpus` driver's default). The sequential
//! interpreter is the reference that the overlapped and MVE executions
//! must match.

use std::hint::black_box;

use ims_codegen::{allocate_rotating, generate_mve, generate_rotating, lifetimes};
use ims_core::{validate_schedule, SchedConfig, Scheduler};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_loopgen::{paper_corpus, Corpus, CorpusLoop};
use ims_machine::{cydra, MachineModel};
use ims_testkit::{Rng, Xoshiro256};
use ims_vliw::{
    compare_memory, compare_results, run_mve, run_overlapped, run_sequential, MemoryImage,
};

use crate::trace::Tracer;
use crate::workload::{Digest, Steps, Verdict, Workload, CORPUS_SEED};

const BUDGET_RATIO: f64 = 6.0;

pub struct Pipeline {
    machine: MachineModel,
    corpus: Corpus,
    /// Corpus indices in the order the items run.
    order: Vec<usize>,
}

/// Builds the machine and the corpus, and draws the item order, in one
/// step.
pub fn setup(seed: u64, _steps: &mut Steps) -> Pipeline {
    let corpus = paper_corpus(CORPUS_SEED);
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    Xoshiro256::seed_from_u64(seed).shuffle(&mut order);
    Pipeline {
        machine: cydra(),
        corpus,
        order,
    }
}

/// What one loop produced.
pub struct Item {
    verdict: Verdict,
    /// `(ii, mii, length)` when the loop scheduled.
    schedule: Option<(i64, i64, i64)>,
    /// Work counts, keyed by the per-layer metric they feed.
    counts: Vec<(&'static str, u64)>,
}

fn run_item<T: Tracer>(t: &mut T, l: &CorpusLoop, machine: &MachineModel) -> Item {
    let mut item = Item {
        verdict: Verdict::Ok,
        schedule: None,
        counts: Vec::new(),
    };
    let body = t.span("deps", "back_substitute", || {
        back_substitute(&l.body, machine)
    });
    let problem = t.span("deps", "build_problem", || {
        build_problem(&body, machine, &BuildOptions::default())
    });
    item.counts.push(("deps.ops", problem.num_ops() as u64));

    let run = t.span("core.sched", "Scheduler::run", || {
        Scheduler::new(&problem)
            .config(SchedConfig::new().budget_ratio(BUDGET_RATIO))
            .run()
    });
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            item.verdict = Verdict::Error(format!("schedule: {e}"));
            return item;
        }
    };
    let s = &out.schedule;
    item.schedule = Some((s.ii, out.mii.mii, s.length));
    item.counts.extend([
        ("core.sched.steps", out.stats.total_steps()),
        ("core.sched.final_steps", out.stats.final_steps()),
        ("core.sched.attempts", out.stats.attempts.len() as u64),
        ("core.sched.evictions", out.stats.counters.evictions),
        (
            "core.sched.findslot_iters",
            out.stats.counters.findslot_iters,
        ),
    ]);
    let valid = t.span("core.validate", "validate_schedule", || {
        validate_schedule(&problem, s)
    });
    if let Err(v) = valid {
        item.verdict = Verdict::Wrong(format!("illegal schedule: {v}"));
        return item;
    }

    let lt = t.span("codegen", "lifetimes", || lifetimes(&body, &problem, s));
    let mve = t.span("codegen", "generate_mve", || {
        generate_mve(&body, &problem, s, &lt)
    });
    black_box(t.span("codegen", "allocate_rotating", || {
        allocate_rotating(&body, &lt, s.ii)
    }));
    // A seed conflict is the documented case for falling back to MVE code,
    // so an `Err` here is an answer, not a failure.
    let _ = black_box(t.span("codegen", "generate_rotating", || {
        generate_rotating(&body, &problem, s, &lt)
    }));
    item.counts.extend([
        (
            "codegen.insts",
            (mve.prologue.len() + mve.kernel.len() + mve.coda.len()) as u64,
        ),
        ("codegen.unroll", u64::from(mve.unroll)),
    ]);

    let image = t.span("vliw", "MemoryImage::for_body", || {
        MemoryImage::for_body(&body)
    });
    let seq = t.span("vliw", "run_sequential", || {
        run_sequential(&body, image.clone())
    });
    let over = t.span("vliw", "run_overlapped", || {
        run_overlapped(&body, &problem, s, image.clone())
    });
    let code = t.span("vliw", "run_mve", || run_mve(&mve, &body, machine, image));
    let (seq, over, code) = match (seq, over, code) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (seq, over, code) => {
            let errs: Vec<String> = [("sequential", seq), ("overlapped", over), ("mve", code)]
                .into_iter()
                .filter_map(|(mode, r)| r.err().map(|e| format!("{mode}: {e}")))
                .collect();
            item.counts.push(("vliw.errors", errs.len() as u64));
            item.verdict = Verdict::Error(errs.join("; "));
            return item;
        }
    };
    item.counts.push(("vliw.cycles", over.cycles + code.cycles));
    let mismatch = t.span("vliw", "compare", || {
        compare_results(&seq, &over)
            .map(|m| format!("overlapped != sequential: {m:?}"))
            .or_else(|| {
                compare_memory(&seq.memory, &code.memory)
                    .map(|m| format!("mve != sequential: {m:?}"))
            })
    });
    if let Some(m) = mismatch {
        item.counts.push(("vliw.mismatches", 1));
        item.verdict = Verdict::Wrong(m);
    }
    item
}

impl Workload for Pipeline {
    type Raw = Vec<Item>;

    fn run<T: Tracer>(&mut self, t: &mut T, lat_ns: &mut Vec<u64>) -> Vec<Item> {
        let machine = &self.machine;
        let mut items = Vec::with_capacity(self.order.len());
        for &i in &self.order {
            let l = &self.corpus.loops[i];
            let t0 = std::time::Instant::now();
            let item = t.item(i, |t| run_item(t, l, machine));
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            items.push(item);
        }
        items
    }

    fn check(&mut self, items: Vec<Item>) -> Digest {
        let mut d = Digest::default();
        for (item, &i) in items.into_iter().zip(&self.order) {
            let l = &self.corpus.loops[i];
            for (k, v) in item.counts {
                d.add(k, v);
            }
            if let Some((ii, mii, length)) = item.schedule {
                d.schedule(i, ii, mii, length, &l.profile);
            }
            d.verdict(i, item.verdict);
        }
        d
    }
}
