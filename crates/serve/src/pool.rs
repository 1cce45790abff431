//! A std-only worker pool for corpus-scale scheduling.
//!
//! The paper's evaluation schedules 1,327 independent loops; nothing about
//! one loop's schedule depends on another's, so the corpus is
//! embarrassingly parallel. [`par_map`] fans a slice out over `threads`
//! scoped `std::thread` workers that pull chunks off a shared atomic
//! cursor (dynamic chunking, so a few expensive loops cannot strand a
//! worker), and reassembles the results **in input order**. Because every
//! result is keyed by its input index before merging, the output is
//! byte-for-byte identical for any thread count — determinism is a
//! property of the merge, not of the OS scheduler.
//!
//! Two failure-handling layers sit on top of the plain map:
//!
//! * [`try_par_map`] catches a panic in the user closure per *item* and
//!   returns it as a structured [`WorkerPanic`] carrying the input index
//!   of the item that blew up — a long-running service turns that into a
//!   per-request failure response instead of process death, and a batch
//!   driver can at least say *which* loop was at fault. The index is the
//!   item's position in the input, so the report is identical at any
//!   thread count.
//! * [`par_map`] still propagates the panic (batch drivers want to die on
//!   a scheduler bug), but with the item and chunk index attached instead
//!   of a bare `expect`.
//!
//! No external dependencies: `std::thread::scope` + `AtomicUsize` only.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many items a worker claims per visit to the shared cursor. Small
/// enough to balance a skewed corpus (one 163-op loop costs hundreds of
/// 4-op loops), large enough to keep cursor contention negligible.
const CHUNK: usize = 8;

/// The number of worker threads to use when the caller does not specify:
/// [`std::thread::available_parallelism`], clamped to the pool's tested
/// range, or 1 if the platform cannot say.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 64)
}

/// Reads a `--threads N` (or `--threads=N`) flag from the process
/// arguments, falling back to [`default_threads`] when the flag is
/// absent. Shared by every corpus binary so they all accept the same
/// flag, with the same strictness: a malformed or zero value prints a
/// usage message to stderr and exits with status 2 (it is **not**
/// silently replaced by a default).
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    threads_or_exit(&args)
}

/// [`threads_from_args`] over an explicit argument list: resolves the
/// `--threads` flag to a worker count, exiting the process with a usage
/// message on a malformed value. For binaries that already collected
/// their arguments.
pub fn threads_or_exit(args: &[String]) -> usize {
    match parse_threads(args) {
        Ok(Some(n)) => n,
        Ok(None) => default_threads(),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --threads N  (N >= 1, e.g. --threads 4 or --threads=4)");
            std::process::exit(2);
        }
    }
}

/// Reads the value of `--name V` / `--name=V` from `args`, parsed as `T`;
/// `None` when the flag is absent. Every driver flag that carries a value
/// goes through here (or through one of the typed parsers below), with
/// the contract of [`threads_or_exit`]: a flag that is present but has a
/// missing or malformed value prints the error and `usage` to stderr and
/// exits with status 2 — it is never silently replaced by a default.
pub fn flag_or_exit<T: std::str::FromStr>(args: &[String], name: &str, usage: &str) -> Option<T> {
    let fail = |msg: String| -> ! {
        eprintln!("error: {msg}");
        eprintln!("{usage}");
        std::process::exit(2);
    };
    match flag_value(args, name) {
        Ok(None) => None,
        Ok(Some(v)) => match v.parse() {
            Ok(t) => Some(t),
            Err(_) => fail(format!("invalid {name} value {v:?}")),
        },
        Err(MissingValue) => fail(format!("{name} requires a value")),
    }
}

/// A value flag was the last argument, with nothing following it.
struct MissingValue;

/// The raw value of the first `--name V` / `--name=V` in `args`
/// (`Ok(None)` when the flag is absent).
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, MissingValue> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().map(|v| Some(v.as_str())).ok_or(MissingValue);
        }
        if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Why a `--threads` flag could not be resolved to a worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsError {
    /// `--threads` was the last argument, with no value following it.
    MissingValue,
    /// The value was not a decimal integer (carries the offending text).
    Invalid(String),
    /// The value parsed as 0, which names no worker configuration: the
    /// single-threaded baseline is `--threads 1`.
    Zero,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadsError::MissingValue => write!(f, "--threads requires a value"),
            ThreadsError::Invalid(v) => write!(f, "invalid --threads value {v:?}"),
            ThreadsError::Zero => write!(f, "--threads must be at least 1"),
        }
    }
}

/// Parses `--threads N` / `--threads=N` out of an argument list.
///
/// Returns `Ok(None)` when the flag is absent (callers fall back to
/// [`default_threads`]) and an error — never a silent default — when the
/// flag is present but malformed: a missing value, a non-numeric value,
/// or `0`. Drivers surface the error and exit nonzero; see
/// [`threads_or_exit`].
pub fn parse_threads(args: &[String]) -> Result<Option<usize>, ThreadsError> {
    let Some(value) = flag_value(args, "--threads").map_err(|_| ThreadsError::MissingValue)? else {
        return Ok(None);
    };
    match value.parse::<usize>() {
        Ok(0) => Err(ThreadsError::Zero),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(ThreadsError::Invalid(value.to_string())),
    }
}

/// Why a `--backend` flag could not be resolved to a [`ims_core::BackendSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// `--backend` was the last argument, with no value following it.
    MissingValue,
    /// The value was not a recognizable spec (carries the parse error,
    /// which names the bad token and lists the registered names).
    Invalid(ims_core::ParseBackendError),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::MissingValue => write!(f, "--backend requires a value"),
            BackendError::Invalid(e) => write!(f, "invalid --backend value: {e}"),
        }
    }
}

/// Reads a `--backend SPEC` (or `--backend=SPEC`) flag from an argument
/// list — the backend-selection twin of [`parse_threads`], shared by
/// every driver so they all accept the same specs with the same
/// strictness. `Ok(None)` when the flag is absent (callers pick their
/// own default backend); an error — never a silent default — when the
/// flag is present but malformed.
pub fn parse_backend(args: &[String]) -> Result<Option<ims_core::BackendSpec>, BackendError> {
    let Some(value) = flag_value(args, "--backend").map_err(|_| BackendError::MissingValue)? else {
        return Ok(None);
    };
    value.parse().map(Some).map_err(BackendError::Invalid)
}

/// [`parse_backend`] with driver-grade failure handling: resolves the
/// `--backend` flag to a spec (or `default` when absent), exiting the
/// process with status 2 and a usage line on a malformed value — the
/// same contract as [`threads_or_exit`].
pub fn backend_or_exit(args: &[String], default: ims_core::BackendSpec) -> ims_core::BackendSpec {
    match parse_backend(args) {
        Ok(Some(spec)) => spec,
        Ok(None) => default,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --backend SPEC  (ims, exact, sat, or portfolio(a,b,...))");
            std::process::exit(2);
        }
    }
}

/// Why a `--pressure-limit` flag could not be resolved to a register
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PressureError {
    /// `--pressure-limit` was the last argument, with no value following.
    MissingValue,
    /// The value was not a decimal integer (carries the offending text).
    Invalid(String),
    /// The value parsed as 0, which no register file satisfies: pressure
    /// enforcement is *off* when the flag is absent, not at limit 0.
    Zero,
}

impl std::fmt::Display for PressureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PressureError::MissingValue => write!(f, "--pressure-limit requires a value"),
            PressureError::Invalid(v) => write!(f, "invalid --pressure-limit value {v:?}"),
            PressureError::Zero => write!(f, "--pressure-limit must be at least 1"),
        }
    }
}

/// Parses `--pressure-limit N` / `--pressure-limit=N` out of an argument
/// list — the register-pressure twin of [`parse_threads`], shared by the
/// drivers that grow a pressure-aware mode. `Ok(None)` when the flag is
/// absent (pressure enforcement disabled); an error — never a silent
/// default — when the flag is present but malformed.
pub fn parse_pressure(args: &[String]) -> Result<Option<u32>, PressureError> {
    let Some(value) =
        flag_value(args, "--pressure-limit").map_err(|_| PressureError::MissingValue)?
    else {
        return Ok(None);
    };
    match value.parse::<u32>() {
        Ok(0) => Err(PressureError::Zero),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(PressureError::Invalid(value.to_string())),
    }
}

/// [`parse_pressure`] with driver-grade failure handling: resolves the
/// `--pressure-limit` flag to a register count (or `None` when absent),
/// exiting the process with status 2 and a usage line on a malformed
/// value — the same contract as [`threads_or_exit`].
pub fn pressure_or_exit(args: &[String]) -> Option<u32> {
    match parse_pressure(args) {
        Ok(limit) => limit,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --pressure-limit N  (N >= 1, e.g. --pressure-limit 16 or --pressure-limit=16)"
            );
            std::process::exit(2);
        }
    }
}

/// A panic caught inside a pool worker, attributed to the input item
/// whose closure raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Input index of the item being processed when the panic fired.
    /// Determined by the input, not by worker arrival order, so error
    /// reports are identical at any thread count.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {} (chunk {}): {}",
            self.index,
            self.index / CHUNK,
            self.message
        )
    }
}

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item of `items` using `threads` worker threads and
/// returns the results in input order.
///
/// With `threads <= 1` the map runs inline on the calling thread (no
/// spawn, no atomics) — the deterministic baseline the parallel path must
/// reproduce exactly. `f` receives `(index, &item)` so callers can key
/// per-item state (seeds, labels) off the stable input position rather
/// than off arrival order.
///
/// # Panics
///
/// Propagates a panic from any worker after all workers have joined,
/// re-raised with the failing item's input index, its chunk index, and
/// the original payload text attached. Callers that must survive a
/// worker panic use [`try_par_map`] instead.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let results = try_par_map(items, threads, f);
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("corpus {p}"),
        })
        .collect()
}

/// [`par_map`] with per-item panic containment: each closure invocation
/// runs under [`catch_unwind`], and a panic becomes an
/// `Err(`[`WorkerPanic`]`)` in that item's output slot while every other
/// item still completes. The scheduling service maps the error to a
/// per-request failure response; [`par_map`] re-raises it.
///
/// Results are in input order for any thread count, exactly as
/// [`par_map`].
pub fn try_par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let call = |i: usize, item: &T| -> Result<R, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| WorkerPanic {
            index: i,
            message: panic_message(payload),
        })
    };

    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| call(i, x)).collect();
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);

    let mut indexed: Vec<(usize, Result<R, WorkerPanic>)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let call = &call;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Result<R, WorkerPanic>)> = Vec::new();
                    loop {
                        let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                        if lo >= items.len() {
                            break;
                        }
                        let hi = (lo + CHUNK).min(items.len());
                        for (i, item) in items[lo..hi].iter().enumerate() {
                            local.push((lo + i, call(lo + i, item)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // The closure's panics are contained per item; a panic escaping
            // the worker itself would be a pool bug, not a workload bug.
            indexed.extend(handle.join().expect("pool worker died outside the user closure"));
        }
    });

    // The merge re-imposes input order: output is independent of which
    // worker computed what, and therefore of the thread count.
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..203).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = par_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..57).collect();
        let got = par_map(&items, 4, |i, &x| (i, x));
        for (i, &(idx, x)) in got.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(x, i);
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u8> = vec![0; 100];
        let _ = par_map(&items, 8, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_zero_behaves_like_one() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(
            par_map(&items, 0, |_, &x| x),
            par_map(&items, 1, |_, &x| x)
        );
    }

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!((1..=64).contains(&t));
    }

    #[test]
    fn threads_flag_parses_both_spellings() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&args(&["bin", "--threads", "4"])), Ok(Some(4)));
        assert_eq!(parse_threads(&args(&["bin", "--threads=8"])), Ok(Some(8)));
        assert_eq!(parse_threads(&args(&["bin"])), Ok(None));
    }

    #[test]
    fn threads_flag_rejects_malformed_values() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_threads(&args(&["bin", "--threads"])),
            Err(ThreadsError::MissingValue)
        );
        assert_eq!(
            parse_threads(&args(&["bin", "--threads", "abc"])),
            Err(ThreadsError::Invalid("abc".into()))
        );
        assert_eq!(
            parse_threads(&args(&["bin", "--threads=1.5"])),
            Err(ThreadsError::Invalid("1.5".into()))
        );
        assert_eq!(
            parse_threads(&args(&["bin", "--threads", "0"])),
            Err(ThreadsError::Zero)
        );
        assert_eq!(
            parse_threads(&args(&["bin", "--threads=-3"])),
            Err(ThreadsError::Invalid("-3".into()))
        );
    }

    #[test]
    fn backend_flag_parses_both_spellings_and_full_specs() {
        use ims_core::{BackendKind, BackendSpec};
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_backend(&args(&["bin", "--backend", "sat"])),
            Ok(Some(BackendSpec::Leaf(BackendKind::Sat)))
        );
        assert_eq!(
            parse_backend(&args(&["bin", "--backend=portfolio(ims,exact)"])),
            Ok(Some(BackendSpec::Portfolio(vec![
                BackendKind::Ims,
                BackendKind::Exact
            ])))
        );
        assert_eq!(parse_backend(&args(&["bin"])), Ok(None));
    }

    #[test]
    fn backend_flag_rejects_malformed_values() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_backend(&args(&["bin", "--backend"])),
            Err(BackendError::MissingValue)
        );
        let err = parse_backend(&args(&["bin", "--backend", "magic"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("magic") && msg.contains("ims, exact, sat"), "{msg}");
        let err = parse_backend(&args(&["bin", "--backend=portfolio(ims,"])).unwrap_err();
        assert!(matches!(err, BackendError::Invalid(_)), "{err}");
    }

    #[test]
    fn pressure_flag_parses_both_spellings() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit", "16"])),
            Ok(Some(16))
        );
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit=12"])),
            Ok(Some(12))
        );
        assert_eq!(parse_pressure(&args(&["bin"])), Ok(None));
    }

    #[test]
    fn pressure_flag_rejects_malformed_values() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit"])),
            Err(PressureError::MissingValue)
        );
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit", "lots"])),
            Err(PressureError::Invalid("lots".into()))
        );
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit=2.5"])),
            Err(PressureError::Invalid("2.5".into()))
        );
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit", "0"])),
            Err(PressureError::Zero)
        );
        assert_eq!(
            parse_pressure(&args(&["bin", "--pressure-limit=-4"])),
            Err(PressureError::Invalid("-4".into()))
        );
    }

    #[test]
    fn try_par_map_contains_panics_per_item() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 4] {
            let got = try_par_map(&items, threads, |_, &x| {
                if x % 13 == 5 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len());
            for (i, r) in got.iter().enumerate() {
                if i % 13 == 5 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert_eq!(p.message, format!("boom at {i}"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &((i as u32) * 2));
                }
            }
        }
    }

    #[test]
    fn worker_panic_display_names_item_and_chunk() {
        let p = WorkerPanic { index: 19, message: "kaput".into() };
        assert_eq!(
            p.to_string(),
            "worker panicked on item 19 (chunk 2): kaput"
        );
    }

    #[test]
    fn par_map_repropagates_with_item_attribution() {
        let items: Vec<u32> = (0..20).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |_, &x| {
                if x == 11 {
                    panic!("bad loop");
                }
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "corpus worker panicked on item 11 (chunk 1): bad loop");
    }
}
