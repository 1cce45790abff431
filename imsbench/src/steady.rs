//! The steadiness report: runs each workload once per seed, each run in
//! its own process, and prints per end-to-end metric the median, the
//! quartiles and the min–max spread. A traced run of the first seed must
//! reproduce that seed's deterministic outputs.

use std::collections::BTreeMap;
use std::process::Command;

use ims_serve::json::{self, Value};

use crate::WORKLOADS;

/// One child run's parsed output.
struct Output {
    metrics: Vec<(String, f64, String)>,
    digest: BTreeMap<String, f64>,
    samples: f64,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {trace} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let parse = |line: Option<&str>| {
        json::parse(line.unwrap_or("")).map_err(|e| format!("{workload} seed {seed}: {e}"))
    };
    let result = parse(stdout.lines().last())?;
    let info = parse(stdout.lines().find(|l| l.starts_with("{\"digest\"")))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (k.clone(), value, unit)
        })
        .collect();
    let digest = info
        .get("digest")
        .and_then(Value::as_obj)
        .ok_or("digest line lacks a digest")?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
        .collect();
    let samples = info
        .get("latency_samples")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    Ok(Output {
        metrics,
        digest,
        samples,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default, exclusive method). `sorted` holds at least two values.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (slot, i) in q.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (sorted[j as usize - 1] * (4.0 - delta) + sorted[j as usize] * delta) / 4.0;
    }
    q
}

pub fn report(runs: usize, workload: Option<&str>, seconds: f64) -> Result<(), String> {
    if runs < 2 {
        return Err("--steady needs at least 2 runs".to_string());
    }
    let chosen: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    for w in chosen {
        let mut table: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut order = Vec::new();
        let mut samples = Vec::new();
        let mut first_digest = None;
        for seed in 1..=runs as u64 {
            let out = run_child(w, seed, seconds, false)?;
            for (name, value, unit) in out.metrics {
                if !table.contains_key(&name) {
                    order.push(name.clone());
                }
                table
                    .entry(name)
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(value);
            }
            samples.push(out.samples);
            first_digest.get_or_insert(out.digest);
        }
        let traced = run_child(w, 1, seconds, true)?;
        let first_digest = first_digest.expect("runs >= 2");
        for (k, v) in &first_digest {
            let t = traced.digest.get(k);
            if t.map(|t| t.to_bits()) != Some(v.to_bits()) {
                return Err(format!("{w} seed 1: {k} is {v} untraced but {t:?} traced"));
            }
        }
        println!("{w}: {runs} runs (seeds 1..={runs}), {seconds} s each; latency samples per run {samples:?}");
        println!(
            "  {:<16} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9} {:>9}",
            "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med", "range/med"
        );
        for name in order {
            let (unit, mut v) = table.remove(&name).expect("every listed metric has values");
            v.sort_by(f64::total_cmp);
            let [q1, med, q3] = quartiles(&v);
            let (min, max) = (v[0], v[v.len() - 1]);
            println!(
                "  {name:<16} {unit:>6} {med:>14.4} {q1:>14.4} {q3:>14.4} {min:>14.4} {max:>14.4} {:>9.4} {:>9.4}",
                (q3 - q1) / med,
                (max - min) / med
            );
        }
        println!("  deterministic outputs of seed 1 repeat in a traced run: yes");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
