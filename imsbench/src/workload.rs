//! What every workload shares: the pass interface, the per-pass digest of
//! deterministic outputs, and the timed and traced runs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::{Off, Recorder};

/// The seed of the loop corpus every workload draws from: the `corpus`
/// driver's default, so the benchmark runs the repository's reference
/// 1327-loop corpus. The benchmark's own seed varies the order of the
/// items and the numbering of the ops in each request (see `README.md` for
/// why it does not pick the loops).
pub const CORPUS_SEED: u64 = 0xC4D5;

/// A timed run makes at least this many passes, so that every item's time
/// is read from several passes.
const MIN_PASSES: u32 = 4;

/// The traced run alternates an untraced and a traced pass until
/// `--seconds` have passed, but stops after this many pairs: the spans of
/// every traced pass are kept in memory and written out.
const MAX_TRACE_PAIRS: u32 = 3;

/// A workload: a fixed list of items, run closed-loop by one client.
pub trait Workload {
    /// What one pass returns for checking once its timing has ended.
    type Raw;
    /// Layers timed by extra calls that only the traced run makes, because
    /// the public entry point runs them internally. Their time is left out
    /// of the tracing overhead.
    const SHADOW: &'static [&'static str] = &[];
    /// Runs every item once; the next item starts when the previous one
    /// has returned. Pushes each item's call-to-return time.
    fn run<T: crate::trace::Tracer>(&mut self, t: &mut T, lat_ns: &mut Vec<u64>) -> Self::Raw;
    /// Checks one pass's outputs.
    fn check(&mut self, raw: Self::Raw) -> Digest;
}

/// The deterministic outputs of one pass. Two passes over the same inputs
/// must produce equal digests.
#[derive(Default)]
pub struct Digest {
    /// Counts, keyed mostly by the per-layer metric they feed; an absent
    /// count is 0. Besides those: `items`, `ok`, `errors` (an item's call
    /// returned an error), `wrong` (an item returned a wrong answer),
    /// `scheduled` (items with an II) and `code_cycles`.
    pub counts: BTreeMap<&'static str, u64>,
    /// ln(II/MII) of each scheduled item, with its source loop's index.
    pub log_ratios: Vec<(usize, f64)>,
    /// Indices of items that did not pass their check, with the reason.
    pub failed: Vec<(usize, String)>,
}

impl Digest {
    pub fn add(&mut self, key: &'static str, v: u64) {
        *self.counts.entry(key).or_default() += v;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Files one item's verdict.
    pub fn verdict(&mut self, index: usize, verdict: Verdict) {
        self.add("items", 1);
        match verdict {
            Verdict::Ok => self.add("ok", 1),
            Verdict::Error(why) => {
                self.add("errors", 1);
                self.failed.push((index, why));
            }
            Verdict::Wrong(why) => {
                self.add("wrong", 1);
                self.failed.push((index, why));
            }
        }
    }

    /// Files one schedule's quality: its II over its MII, and the §4.3
    /// execution time `EntryFreq·SL + (LoopFreq − EntryFreq)·II` under the
    /// source loop's profile.
    pub fn schedule(
        &mut self,
        source: usize,
        ii: i64,
        mii: i64,
        length: i64,
        profile: &ims_loopgen::Profile,
    ) {
        self.add("scheduled", 1);
        self.log_ratios
            .push((source, (ii as f64 / mii as f64).ln()));
        let cycles = profile.entry_freq * length as u64
            + (profile.loop_freq - profile.entry_freq) * ii as u64;
        self.add("code_cycles", cycles);
    }

    /// Geometric mean of II/MII, summed in source-loop order so that it
    /// does not depend on the order the items ran in.
    pub fn ii_over_mii(&self) -> f64 {
        let mut logs = self.log_ratios.clone();
        logs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        (logs.iter().map(|l| l.1).sum::<f64>() / logs.len().max(1) as f64).exp()
    }

    /// Whether `other` agrees on every count this digest has (a traced
    /// pass adds counts of its own) and on everything else.
    fn agrees_with(&self, other: &Digest) -> Result<(), String> {
        for (k, v) in &self.counts {
            if other.counts.get(k) != Some(v) {
                return Err(format!("{k}: {v} vs {:?}", other.counts.get(k)));
            }
        }
        if self.ii_over_mii().to_bits() != other.ii_over_mii().to_bits() {
            return Err(format!(
                "ii_over_mii: {} vs {}",
                self.ii_over_mii(),
                other.ii_over_mii()
            ));
        }
        if self.failed != other.failed {
            return Err(format!(
                "failed items: {:?} vs {:?}",
                self.failed, other.failed
            ));
        }
        Ok(())
    }
}

/// One item's check result.
#[derive(Clone)]
pub enum Verdict {
    Ok,
    /// The program returned an error instead of an answer.
    Error(String),
    /// The program returned a wrong answer.
    Wrong(String),
}

/// Times the steps of one set-up. A set-up calls [`Steps::lap`] between
/// its steps; the last step ends when the set-up returns.
pub struct Steps {
    pub times_ns: Vec<u64>,
    last: Instant,
}

impl Steps {
    pub fn new() -> Self {
        Steps {
            times_ns: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Ends the current step and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.times_ns.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// The fastest time of each step over the repeats, which all have the same
/// steps: the items of the passes, or the steps of the set-ups.
pub fn fastest_each(repeats: &[Vec<u64>]) -> Vec<u64> {
    (0..repeats[0].len())
        .map(|i| repeats.iter().map(|r| r[i]).min().expect("a repeat ran"))
        .collect()
}

/// The untraced, timed part of a run.
pub struct Timed {
    pub passes: u32,
    /// Each item's time: the fastest of its times over the passes.
    pub item_ns: Vec<u64>,
    pub digest: Digest,
}

/// Runs whole passes until `seconds` of pass time have accumulated, and at
/// least [`MIN_PASSES`]. After each pass it calls `between` with the pass
/// time so far; the caller repeats its set-up there, so that set-up is
/// timed across the whole run like the items.
///
/// # Errors
///
/// When a pass's digest differs from the first pass's.
pub fn timed<W: Workload>(
    w: &mut W,
    seconds: f64,
    mut between: impl FnMut(f64),
) -> Result<Timed, String> {
    let mut passes: Vec<Vec<u64>> = Vec::new();
    let mut elapsed_s = 0.0;
    let mut first: Option<Digest> = None;
    while passes.len() < MIN_PASSES as usize || elapsed_s < seconds {
        let mut lat = Vec::new();
        let t0 = Instant::now();
        let raw = w.run(&mut Off, &mut lat);
        elapsed_s += t0.elapsed().as_secs_f64();
        passes.push(lat);
        let d = w.check(raw);
        match &first {
            None => first = Some(d),
            Some(f) => f
                .agrees_with(&d)
                .map_err(|e| format!("pass {} differs from pass 1: {e}", passes.len()))?,
        }
        between(elapsed_s);
    }
    // Other work on the host slows this process for seconds to minutes at
    // a time, by a different amount each time. An item's fastest time reads
    // the host at its quietest, whose speed does not change; any other
    // quantile follows how busy the host was.
    Ok(Timed {
        passes: passes.len() as u32,
        item_ns: fastest_each(&passes),
        digest: first.expect("at least one pass ran"),
    })
}

/// The traced part of a run.
pub struct Traced {
    pub pairs: u32,
    pub recorder: Recorder,
    /// Σ call-to-return time of the untraced passes.
    pub untraced_ns: u64,
    /// Digest of a traced pass (a superset of the untraced digest).
    pub digest: Digest,
}

/// Alternates untraced and traced passes, checking that every pass's
/// digest agrees with the first untraced one.
///
/// # Errors
///
/// When a digest differs.
pub fn traced<W: Workload>(w: &mut W, seconds: f64) -> Result<Traced, String> {
    let start = Instant::now();
    let mut recorder = Recorder::new();
    let mut untraced_ns = 0;
    let mut lat = Vec::new();
    let mut reference: Option<(Digest, Digest)> = None;
    let mut pairs = 0;
    while pairs == 0 || (start.elapsed().as_secs_f64() < seconds && pairs < MAX_TRACE_PAIRS) {
        lat.clear();
        let raw = w.run(&mut Off, &mut lat);
        untraced_ns += lat.iter().sum::<u64>();
        let plain = w.check(raw);
        recorder.pass = pairs;
        let raw = w.run(&mut recorder, &mut lat);
        let rich = w.check(raw);
        pairs += 1;
        plain
            .agrees_with(&rich)
            .map_err(|e| format!("pair {pairs}: traced pass differs from untraced: {e}"))?;
        match &reference {
            None => reference = Some((plain, rich)),
            Some((p, r)) => {
                p.agrees_with(&plain)
                    .map_err(|e| format!("untraced pass {pairs} differs: {e}"))?;
                r.agrees_with(&rich)
                    .map_err(|e| format!("traced pass {pairs} differs: {e}"))?;
            }
        }
    }
    let (_, digest) = reference.expect("at least one pair ran");
    Ok(Traced {
        pairs,
        recorder,
        untraced_ns,
        digest,
    })
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
