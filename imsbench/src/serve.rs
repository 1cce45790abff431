//! `serve-hot` and `serve-prove`: the service path, parse → canonicalize →
//! cache → schedule → render, through `Engine::process_batch` with one
//! request line per call.
//!
//! The engine parses and canonicalizes inside `process_batch`, so the
//! traced run times those layers by calling `parse_request` and
//! `key_request` on the same line just after the engine call. On
//! `serve-prove` it also re-solves each distinct canonical problem through
//! `schedule_sat` with the request's parameters and checks that the II
//! matches the engine's answer. These extra calls are the workload's
//! shadow layers: only the traced run makes them.

use std::collections::HashSet;
use std::time::Instant;

use ims_core::{validate_schedule, BackendSpec, ProblemBuilder, SchedConfig, Schedule};
use ims_ir::OpId;
use ims_loopgen::{paper_corpus, Profile};
use ims_machine::MachineModel;
use ims_sat::{schedule_sat, SatConfig};
use ims_serve::json::{self, Value};
use ims_serve::{gen_requests_backend, key_request, machine_by_name, parse_request};
use ims_serve::{Engine, Keyed, Request, WireEdge};
use ims_testkit::{Rng, Xoshiro256};

use crate::trace::Tracer;
use crate::workload::{Digest, Steps, Verdict, Workload, CORPUS_SEED};

/// Loops in the request corpus: the size of `paper_corpus`.
const REQUESTS: usize = 1327;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Warm cache; every line a hit.
    Hot,
    /// Fresh engine per pass; SAT backend.
    Prove,
}

pub struct Serve {
    kind: Kind,
    /// The timed request lines.
    stream: Vec<String>,
    /// Each line's request and the index of its source loop.
    requests: Vec<(Request, usize)>,
    profiles: Vec<Profile>,
    engine: Engine,
    /// `serve-hot`: the warm-up II of each source loop.
    warm_ii: Vec<i64>,
    /// The first pass's responses, their verdicts and schedules.
    reference: Option<Vec<Checked>>,
    /// Response buffers, reused across passes.
    out: Vec<Vec<u8>>,
}

struct Checked {
    bytes: Vec<u8>,
    verdict: Verdict,
    schedule: Option<(i64, i64, i64)>,
}

/// Generates the request corpus from the reference loops, renumbers each
/// request's ops with a permutation drawn from the seed, and shuffles the
/// order. For `serve-hot` it then warms a fresh engine with those lines,
/// one line per call and per step, and adds to the stream a second,
/// differently renumbered copy of each.
pub fn setup(kind: Kind, seed: u64, steps: &mut Steps) -> Serve {
    let profiles: Vec<Profile> = paper_corpus(CORPUS_SEED)
        .loops
        .into_iter()
        .map(|l| l.profile)
        .collect();
    let backend: BackendSpec = match kind {
        Kind::Hot => BackendSpec::default(),
        Kind::Prove => "sat".parse().expect("sat is a backend name"),
    };
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut requests: Vec<(Request, usize)> = gen_requests_backend(CORPUS_SEED, REQUESTS, &backend)
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let req = parse_request(line).expect("generated requests parse");
            (renumbered(&req, req.id.clone(), &mut rng), i)
        })
        .collect();
    rng.shuffle(&mut requests);
    let mut engine = Engine::new(1);
    let mut warm_ii = vec![-1; REQUESTS];
    if kind == Kind::Hot {
        let mut out = Vec::new();
        for (req, src) in &requests {
            steps.lap();
            out.clear();
            engine
                .process_batch(&[req.to_line()], &mut out)
                .expect("writing to memory cannot fail");
            warm_ii[*src] = json::parse(String::from_utf8_lossy(&out).trim_end())
                .ok()
                .and_then(|v| v.get("ii")?.as_i64())
                .unwrap_or(-1);
        }
        steps.lap();
        requests = requests
            .into_iter()
            .flat_map(|(req, src)| {
                let copy = renumbered(&req, format!("{}~r", req.id), &mut rng);
                [(req, src), (copy, src)]
            })
            .collect();
    }
    let stream = requests.iter().map(|(r, _)| r.to_line()).collect();
    Serve {
        kind,
        stream,
        requests,
        profiles,
        engine,
        warm_ii,
        reference: None,
        out: Vec::new(),
    }
}

/// An isomorphic copy of `req` under a random renumbering of its ops: the
/// same canonical problem, different bytes.
fn renumbered(req: &Request, id: String, rng: &mut Xoshiro256) -> Request {
    let n = req.ops.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let mut ops = req.ops.clone();
    for (i, &p) in perm.iter().enumerate() {
        ops[p as usize] = req.ops[i];
    }
    let edges = req
        .edges
        .iter()
        .map(|e| WireEdge {
            from: perm[e.from as usize],
            to: perm[e.to as usize],
            ..*e
        })
        .collect();
    Request {
        id,
        ops,
        edges,
        ..req.clone()
    }
}

/// The problem a request describes, in its own numbering.
fn problem_of<'m>(
    machine: &'m MachineModel,
    ops: &[ims_ir::Opcode],
    edges: &[WireEdge],
) -> ims_core::Problem<'m> {
    let mut pb = ProblemBuilder::new(machine);
    let nodes: Vec<_> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| pb.add_op(op, OpId(i as u32)))
        .collect();
    for e in edges {
        pb.add_dep(
            nodes[e.from as usize],
            nodes[e.to as usize],
            e.delay,
            e.distance,
            e.kind,
            e.is_mem,
        );
    }
    pb.finish()
}

/// What the traced run's prover re-solve found for one canonical problem.
pub struct SatFacts {
    item: usize,
    /// `None` when the prover returned an error.
    ii: Option<i64>,
    conflicts: u64,
    optimal: bool,
    limit_hit: bool,
}

pub struct Raw {
    out: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
    entries: u64,
    sat: Vec<SatFacts>,
}

fn shadow_sat<T: Tracer>(t: &mut T, req: &Request, keyed: &Keyed, item: usize) -> SatFacts {
    let machine = machine_by_name(&req.machine).expect("generated requests name a known machine");
    t.span("sat", "schedule_sat", || {
        let problem = problem_of(&machine, &keyed.canon.ops, &keyed.canon.edges);
        let mut heuristic = SchedConfig::new().budget_ratio(req.budget_ratio);
        if let Some(m) = req.max_ii {
            heuristic = heuristic.max_ii(m);
        }
        let out = schedule_sat(&problem, &SatConfig::new().heuristic(heuristic));
        SatFacts {
            item,
            ii: out.as_ref().ok().map(|o| o.schedule.ii),
            conflicts: out.as_ref().map_or(0, |o| o.conflicts),
            optimal: out.as_ref().is_ok_and(|o| o.optimal()),
            limit_hit: out.as_ref().is_ok_and(|o| o.limit_hit),
        }
    })
}

impl Serve {
    /// Checks one response against its request: `ok:true`, a schedule
    /// that validates on the request's own graph, and on `serve-hot` the
    /// warm-up II of the same source line.
    fn check_response(&self, index: usize, bytes: &[u8]) -> Checked {
        let (req, src) = &self.requests[index];
        let mut c = Checked {
            bytes: bytes.to_vec(),
            verdict: Verdict::Ok,
            schedule: None,
        };
        let resp = match std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(s.trim_end()))
        {
            Ok(v) => v,
            Err(e) => {
                c.verdict = Verdict::Wrong(format!("unparsable response: {e}"));
                return c;
            }
        };
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            let error = resp.get("error").and_then(Value::as_str).unwrap_or("?");
            c.verdict = Verdict::Error(format!("ok:false: {error}"));
            return c;
        }
        let int = |k: &str| resp.get(k).and_then(Value::as_i64);
        let ints = |k: &str| -> Option<Vec<i64>> {
            resp.get(k)?.as_arr()?.iter().map(Value::as_i64).collect()
        };
        let (Some(ii), Some(mii), Some(length), Some(times), Some(alts)) = (
            int("ii"),
            int("mii"),
            int("length"),
            ints("times"),
            ints("alts"),
        ) else {
            c.verdict = Verdict::Wrong("response lacks a schedule field".to_string());
            return c;
        };
        c.schedule = Some((ii, mii, length));
        let machine =
            machine_by_name(&req.machine).expect("generated requests name a known machine");
        let problem = problem_of(&machine, &req.ops, &req.edges);
        let schedule = Schedule {
            ii,
            time: std::iter::once(0)
                .chain(times)
                .chain(std::iter::once(length))
                .collect(),
            alternative: std::iter::once(0)
                .chain(alts.into_iter().map(|a| a as usize))
                .chain(std::iter::once(0))
                .collect(),
            length,
        };
        if let Err(v) = validate_schedule(&problem, &schedule) {
            c.verdict = Verdict::Wrong(format!("illegal schedule: {v}"));
        } else if self.kind == Kind::Hot && ii != self.warm_ii[*src] {
            let warm = self.warm_ii[*src];
            c.verdict = Verdict::Wrong(format!("II {ii} differs from the warm-up II {warm}"));
        }
        c
    }
}

impl Workload for Serve {
    type Raw = Raw;
    const SHADOW: &'static [&'static str] = &["serve.wire", "graph.canon", "sat"];

    fn run<T: Tracer>(&mut self, t: &mut T, lat_ns: &mut Vec<u64>) -> Raw {
        if self.kind == Kind::Prove {
            self.engine = Engine::new(1);
        }
        let (hits, misses) = (self.engine.cache.hits, self.engine.cache.misses);
        let mut out = std::mem::take(&mut self.out);
        out.resize(self.stream.len(), Vec::new());
        let mut sat = Vec::new();
        let mut solved = HashSet::new();
        for (i, (line, buf)) in self.stream.iter().zip(&mut out).enumerate() {
            buf.clear();
            let engine = &mut self.engine;
            let prove = self.kind == Kind::Prove;
            let t0 = Instant::now();
            t.item(i, |t| {
                t.span("serve.engine", "process_batch", || {
                    engine.process_batch(std::slice::from_ref(line), buf)
                })
                .expect("writing to memory cannot fail");
                // The shadow calls follow the engine call, so they cannot
                // warm the caches for it.
                if !T::ON {
                    return;
                }
                let Ok(req) = t.span("serve.wire", "parse_request", || parse_request(line)) else {
                    return;
                };
                let keyed = t.span("graph.canon", "key_request", || key_request(&req));
                if prove && solved.insert(keyed.key) {
                    sat.push(shadow_sat(t, &req, &keyed, i));
                }
            });
            lat_ns.push(t0.elapsed().as_nanos() as u64);
        }
        Raw {
            out,
            hits: self.engine.cache.hits - hits,
            misses: self.engine.cache.misses - misses,
            entries: self.engine.cache.len() as u64,
            sat,
        }
    }

    fn check(&mut self, raw: Raw) -> Digest {
        let reference = match self.reference.take() {
            Some(r) => r,
            None => raw
                .out
                .iter()
                .enumerate()
                .map(|(i, b)| self.check_response(i, b))
                .collect(),
        };
        let mut d = Digest::default();
        d.add("serve.cache.hits", raw.hits);
        d.add("serve.cache.misses", raw.misses);
        d.add("serve.cache.entries", raw.entries);
        let mut sat_ii = vec![None; self.stream.len()];
        for f in &raw.sat {
            d.add("sat.solves", 1);
            d.add("sat.conflicts", f.conflicts);
            d.add("sat.optimal", u64::from(f.optimal));
            d.add("sat.limit_hits", u64::from(f.limit_hit));
            sat_ii[f.item] = Some(f.ii);
        }
        for (i, (bytes, want)) in raw.out.iter().zip(&reference).enumerate() {
            d.add("serve.wire.bytes", self.stream[i].len() as u64);
            if let Some((ii, mii, length)) = want.schedule {
                let src = self.requests[i].1;
                d.schedule(src, ii, mii, length, &self.profiles[src]);
            }
            let engine_ii = want.schedule.map(|s| s.0);
            let verdict = match (&want.verdict, sat_ii[i]) {
                _ if *bytes != want.bytes => {
                    Verdict::Wrong("response differs from the first pass".to_string())
                }
                (Verdict::Ok, Some(sat)) if sat != engine_ii => Verdict::Wrong(format!(
                    "schedule_sat gives II {sat:?}, the engine answered {engine_ii:?}"
                )),
                (v, _) => v.clone(),
            };
            d.verdict(i, verdict);
        }
        self.reference = Some(reference);
        self.out = raw.out;
        d
    }
}
