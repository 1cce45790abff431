//! End-to-end benchmark of the corpus pipeline and the scheduling service.
//!
//! ```text
//! imsbench --workload <pipeline|serve-hot|serve-prove> --seed N --seconds S --trace <0|1>
//! imsbench --steady RUNS [--workload W] [--seconds S]
//! ```
//!
//! One process, one thread, one closed-loop client; see `README.md` for
//! the workloads and the metrics. The last stdout line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with the
//! end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`.

mod pipeline;
mod serve;
mod steady;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use trace::Summary;
use workload::{fastest_each, percentile, Digest, Steps, Workload};

const WORKLOADS: [&str; 3] = ["pipeline", "serve-hot", "serve-prove"];

/// An untraced run repeats its set-up between the timed passes, until the
/// set-ups have taken this share of the pass time, and at least
/// [`SETUP_MIN_REPEATS`] times. `setup_s` is read the same way as the item
/// times: the sum over the set-up's steps of each step's fastest time.
const SETUP_SHARE: f64 = 0.2;
const SETUP_MIN_REPEATS: usize = 5;

const USAGE: &str = "usage: imsbench --workload <pipeline|serve-hot|serve-prove> --seed N --seconds S --trace <0|1>\n       imsbench --steady RUNS [--workload W] [--seconds S]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--steady" => a.steady = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.steady.is_none() && a.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("imsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.steady, args.workload.as_deref()) {
        (Some(runs), w) => steady::report(runs, w, args.seconds),
        (None, Some(w)) => run(w, args.seed, args.seconds, args.trace),
        (None, None) => unreachable!("parse_args requires a workload"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("imsbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    match workload {
        "pipeline" => measure(workload, |s| pipeline::setup(seed, s), seconds, trace),
        "serve-hot" => measure(
            workload,
            |s| serve::setup(serve::Kind::Hot, seed, s),
            seconds,
            trace,
        ),
        "serve-prove" => measure(
            workload,
            |s| serve::setup(serve::Kind::Prove, seed, s),
            seconds,
            trace,
        ),
        _ => unreachable!("parse_args validates the workload"),
    }
}

/// One metric of the result line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn measure<W: Workload>(
    name: &str,
    setup: impl Fn(&mut Steps) -> W,
    seconds: f64,
    trace: bool,
) -> Result<(), String> {
    if trace {
        return measure_traced(name, setup(&mut Steps::new()), seconds);
    }
    let mut setups = Vec::new();
    let mut w = timed_setup(&setup, &mut setups);
    let t = workload::timed(&mut w, seconds, |pass_s| {
        while (setups.iter().flatten().sum::<u64>() as f64) < SETUP_SHARE * pass_s * 1e9 {
            drop(timed_setup(&setup, &mut setups));
        }
    })?;
    while setups.len() < SETUP_MIN_REPEATS {
        drop(timed_setup(&setup, &mut setups));
    }
    let d = &t.digest;

    let mut lat = t.item_ns;
    lat.sort_unstable();
    let items = d.get("items");
    let beyond_p99 = lat.len() - lat.partition_point(|&x| x <= percentile(&lat, 99.0));
    let metrics = [
        (
            "items_per_s",
            items as f64 * 1e9 / lat.iter().sum::<u64>() as f64,
            "1/s",
        ),
        ("latency_p50_us", percentile(&lat, 50.0) as f64 / 1e3, "us"),
        ("latency_p99_us", percentile(&lat, 99.0) as f64 / 1e3, "us"),
        ("ok_share", d.get("ok") as f64 / items as f64, "share"),
        (
            "setup_s",
            fastest_each(&setups).iter().sum::<u64>() as f64 / 1e9,
            "s",
        ),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ("ii_over_mii", d.ii_over_mii(), "ratio"),
        ("code_cycles", d.get("code_cycles") as f64, "cycles"),
    ];
    println!(
        "# {name}: {} passes of {items} items; {} set-ups; latency samples: {} item times, {beyond_p99} beyond p99",
        t.passes,
        setups.len(),
        lat.len(),
    );
    print_result(d, t.passes, lat.len(), &metrics);
    Ok(())
}

/// Runs `setup` and pushes the times of its steps.
fn timed_setup<W>(setup: &impl Fn(&mut Steps) -> W, setups: &mut Vec<Vec<u64>>) -> W {
    let mut steps = Steps::new();
    let w = setup(&mut steps);
    steps.lap();
    setups.push(steps.times_ns);
    w
}

fn measure_traced<W: Workload>(name: &str, mut w: W, seconds: f64) -> Result<(), String> {
    let t = workload::traced(&mut w, seconds)?;
    let s: Summary = t.recorder.summary();
    let d = &t.digest;
    let per_pass = |ns: u64| ns as f64 / f64::from(t.pairs);
    let busy_ms = |layer: &str| per_pass(s.busy_ns(layer)) / 1e6;
    let busy_us = |layer: &str| per_pass(s.busy_ns(layer)) / 1e3;
    let count = |k: &str| d.get(k) as f64;
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let shadow_ns: u64 = W::SHADOW.iter().map(|l| s.busy_ns(l)).sum();
    let mut canon = s.layer_ns.get("graph.canon").cloned().unwrap_or_default();
    canon.sort_unstable();
    let hits = count("serve.cache.hits");

    let metrics = [
        ("deps.busy_ms", busy_ms("deps"), "ms"),
        ("deps.ops", count("deps.ops"), "count"),
        ("core.sched.busy_ms", busy_ms("core.sched"), "ms"),
        ("core.sched.steps", count("core.sched.steps"), "count"),
        (
            "core.sched.useful_step_share",
            share(count("core.sched.final_steps"), count("core.sched.steps")),
            "share",
        ),
        ("core.sched.attempts", count("core.sched.attempts"), "count"),
        (
            "core.sched.evictions",
            count("core.sched.evictions"),
            "count",
        ),
        (
            "core.sched.findslot_iters",
            count("core.sched.findslot_iters"),
            "count",
        ),
        ("core.validate.busy_ms", busy_ms("core.validate"), "ms"),
        ("codegen.busy_ms", busy_ms("codegen"), "ms"),
        ("codegen.insts", count("codegen.insts"), "count"),
        (
            "codegen.unroll",
            share(count("codegen.unroll"), count("scheduled")),
            "factor",
        ),
        ("vliw.busy_ms", busy_ms("vliw"), "ms"),
        ("vliw.cycles", count("vliw.cycles"), "cycles"),
        ("vliw.errors", count("vliw.errors"), "count"),
        ("vliw.mismatches", count("vliw.mismatches"), "count"),
        ("serve.wire.busy_us", busy_us("serve.wire"), "us"),
        ("serve.wire.bytes", count("serve.wire.bytes"), "bytes"),
        (
            "serve.wire.mb_per_s",
            share(count("serve.wire.bytes"), busy_us("serve.wire")),
            "MB/s",
        ),
        ("graph.canon.busy_us", busy_us("graph.canon"), "us"),
        (
            "graph.canon.p99_us",
            percentile(&canon, 99.0) as f64 / 1e3,
            "us",
        ),
        ("serve.engine.busy_us", busy_us("serve.engine"), "us"),
        (
            "serve.engine.self_us",
            busy_us("serve.engine") - busy_us("serve.wire") - busy_us("graph.canon"),
            "us",
        ),
        ("serve.cache.hits", hits, "count"),
        ("serve.cache.misses", count("serve.cache.misses"), "count"),
        (
            "serve.cache.hit_share",
            share(hits, hits + count("serve.cache.misses")),
            "share",
        ),
        ("serve.cache.entries", count("serve.cache.entries"), "count"),
        ("sat.busy_ms", busy_ms("sat"), "ms"),
        ("sat.conflicts", count("sat.conflicts"), "count"),
        (
            "sat.optimal_share",
            share(count("sat.optimal"), count("sat.solves")),
            "share",
        ),
        ("sat.limit_hits", count("sat.limit_hits"), "count"),
        (
            "trace.unattributed_share",
            share((s.item_ns - s.child_ns) as f64, s.item_ns as f64),
            "share",
        ),
        (
            "trace.overhead_share",
            share(
                s.item_ns as f64 - shadow_ns as f64 - t.untraced_ns as f64,
                t.untraced_ns as f64,
            ),
            "share",
        ),
    ];

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{name}.jsonl"));
    let mut failed: Vec<usize> = d.failed.iter().map(|(i, _)| *i).collect();
    failed.sort_unstable();
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            t.recorder.write(&mut f, &failed)?;
            std::io::Write::flush(&mut f)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# {name}: {} untraced + {} traced passes; {} spans in {}",
        t.pairs,
        t.pairs,
        t.recorder.spans.len(),
        path.display()
    );
    print_result(d, t.pairs, 0, &metrics);
    Ok(())
}

/// Prints the human-readable table, the digest line the steadiness report
/// compares across runs, and the result line.
fn print_result(d: &Digest, passes: u32, samples: usize, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("# {name:<30} {value:>16.6} {unit}");
    }
    let mut failed_items = d.failed.clone();
    failed_items.sort();
    for (i, why) in &failed_items {
        println!("# failed item {i}: {why}");
    }
    let mut digest = String::new();
    for (k, v) in &d.counts {
        let _ = write!(digest, "\"{k}\":{v},");
    }
    let failed: Vec<String> = failed_items.iter().map(|(i, _)| i.to_string()).collect();
    println!(
        "{{\"digest\":{{{digest}\"ii_over_mii\":{}}},\"latency_samples\":{samples},\"failed_items\":[{}]}}",
        d.ii_over_mii(),
        failed.join(",")
    );
    let mut line = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    let items = u64::from(passes) * d.get("items");
    let failed = u64::from(passes) * (d.get("errors") + d.get("wrong"));
    println!(
        "{{\"correct\":{},\"attempted\":{items},\"failed\":{failed},\"metrics\":{{{line}}}}}",
        d.get("wrong") == 0
    );
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
