//! Byte-for-byte pins of the corpus drivers' output.
//!
//! Every file under `golden/` was produced by the release binaries before
//! the measurement paths were unified behind one `measure` entry point and
//! the provers behind one II walk; these tests hold the drivers to those
//! bytes. Each configuration runs twice, plain and with `--profile`: both
//! stdouts must equal the pinned `<name>.jsonl`, and the profiled run's
//! snapshot must reproduce the pinned deterministic section
//! (`<name>.det.json`; the wall section is machine-dependent and is not
//! pinned). The iterative trace directory is pinned file by file; the
//! exact prover's `optgap` traces (five runs per loop, too large to keep)
//! are pinned by their FNV-1a digests and lengths.
//!
//! The goldens were generated with `--threads 2`; the drivers' output is
//! thread-count invariant, which `scripts/verify.sh` checks separately.
//! The exact-prover runs use `--deadline-ms 20` so that one loop runs out
//! of nodes and the walk's limit-hit branch is pinned alongside its
//! found and infeasible branches. The pressure run stops at the 31 hand
//! kernels: the synthetic loops after them include a 164-op loop that no
//! 16-register schedule fits, and walking it to the II cap takes well
//! over a minute in an unoptimized build.

use std::path::{Path, PathBuf};
use std::process::Command;

use ims_prof::snapshot::deterministic_section;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A per-test scratch directory (tests run concurrently in one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ims_golden_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin args… --threads 2 [extra…]` and returns its stdout.
fn stdout_of(bin: &str, args: &[&str], extra: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .args(["--threads", "2"])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?} {extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Checks configuration `name` against its goldens, plain and profiled.
fn check(name: &str, bin: &str, args: &[&str]) {
    let want = read(&golden(&format!("{name}.jsonl")));
    assert!(
        stdout_of(bin, args, &[]) == want,
        "{name}: stdout differs from the golden"
    );

    let dir = scratch(name);
    let snap = dir.join("snapshot.json");
    let profiled = stdout_of(bin, args, &["--profile", snap.to_str().unwrap()]);
    assert!(profiled == want, "{name}: --profile changed stdout");
    let text = read(&snap);
    let det = deterministic_section(&text).expect("snapshot has a deterministic section");
    let want_det = read(&golden(&format!("{name}.det.json")));
    assert_eq!(
        det.trim(),
        want_det.trim(),
        "{name}: deterministic section differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_ims_matches_golden() {
    check(
        "corpus_ims",
        env!("CARGO_BIN_EXE_corpus"),
        &["--loops", "40"],
    );
}

#[test]
fn corpus_exact_matches_golden() {
    check(
        "corpus_exact",
        env!("CARGO_BIN_EXE_corpus"),
        &["--loops", "40", "--backend", "exact", "--deadline-ms", "20"],
    );
}

#[test]
fn corpus_sat_matches_golden() {
    check(
        "corpus_sat",
        env!("CARGO_BIN_EXE_corpus"),
        &["--loops", "40", "--backend", "sat"],
    );
}

#[test]
fn corpus_pressure_matches_golden() {
    check(
        "corpus_press",
        env!("CARGO_BIN_EXE_corpus"),
        &["--loops", "31", "--pressure-limit", "16"],
    );
}

#[test]
fn optgap_exact_matches_golden() {
    check(
        "optgap_exact",
        env!("CARGO_BIN_EXE_optgap"),
        &["--loops", "40", "--deadline-ms", "20"],
    );
}

#[test]
fn optgap_sat_matches_golden() {
    check(
        "optgap_sat",
        env!("CARGO_BIN_EXE_optgap"),
        &["--loops", "40", "--backend", "sat"],
    );
}

/// Sorted file names of a directory.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn corpus_trace_directory_matches_golden() {
    let want_dir = golden("trace_corpus");
    for profile in [false, true] {
        let dir = scratch(if profile { "trace_profiled" } else { "trace" });
        let traces = dir.join("traces");
        let snap = dir.join("snapshot.json");
        let mut extra = vec!["--trace", traces.to_str().unwrap()];
        if profile {
            extra.extend(["--profile", snap.to_str().unwrap()]);
        }
        stdout_of(env!("CARGO_BIN_EXE_corpus"), &["--loops", "40"], &extra);
        let names = listing(&traces);
        assert_eq!(names, listing(&want_dir));
        for name in names {
            let got = std::fs::read(traces.join(&name)).unwrap();
            let want = std::fs::read(want_dir.join(&name)).unwrap();
            assert!(got == want, "trace {name} differs (profile: {profile})");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn optgap_exact_traces_match_golden_digests() {
    let dir = scratch("optgap_trace");
    let traces = dir.join("traces");
    stdout_of(
        env!("CARGO_BIN_EXE_optgap"),
        &["--loops", "40", "--deadline-ms", "20"],
        &["--trace", traces.to_str().unwrap()],
    );
    let got: String = listing(&traces)
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(traces.join(&name)).unwrap();
            format!("{name} {:016x} {}\n", fnv1a(&bytes), bytes.len())
        })
        .collect();
    assert_eq!(got, read(&golden("optgap_exact.trace.fnv")));
    std::fs::remove_dir_all(&dir).ok();
}
