//! The `dsm` front end, judged by golden output.
//!
//! `tests/golden/` holds byte-exact stdout of the harness commands on
//! the sequential engine (deterministic, and identical between debug
//! and release builds), plus the bytes of the files they export. Each
//! case runs `harness::cli::run` in-process and compares. The only
//! normalisation is the scratch-directory prefix in "wrote …" lines,
//! shown as `<tmp>/`.
//!
//! The rest of the file pins the error side: what a command does not
//! read is rejected with exit status 2, and the regression gates fail
//! with exit status 1 when a baseline is tightened below what the run
//! observes.

use std::path::PathBuf;

use harness::cli::{self, Error};

fn dsm(args: &str) -> (Result<(), Error>, String) {
    let mut out = Vec::new();
    let result = cli::run(args.split_whitespace().map(String::from), &mut out);
    (result, String::from_utf8(out).expect("utf-8 output"))
}

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A fresh per-test scratch directory.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `args` (where `{tmp}` stands for a scratch directory), require
/// success, and compare stdout with `tests/golden/{name}.txt` and each
/// exported file `{tmp}/{name}.{ext}` with `tests/golden/{name}.{ext}`.
fn check(name: &str, args: &str, exports: &[&str]) {
    let dir = scratch(name);
    let tmp = dir.display().to_string();
    let (result, out) = dsm(&args.replace("{tmp}", &tmp));
    if let Err(e) = result {
        panic!("dsm {args}: {e}");
    }
    let out: String = out
        .split_inclusive('\n')
        .map(|l| {
            if l.starts_with("wrote ") {
                l.replace(&format!("{tmp}/"), "<tmp>/")
            } else {
                l.to_string()
            }
        })
        .collect();
    let want = String::from_utf8(golden(&format!("{name}.txt"))).unwrap();
    assert!(
        out == want,
        "dsm {args}: stdout differs from golden\n--- got\n{out}\n--- want\n{want}"
    );
    for ext in exports {
        let file = format!("{name}.{ext}");
        let got = std::fs::read(dir.join(&file)).unwrap();
        assert!(
            got == golden(&file),
            "dsm {args}: {file} differs from golden"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_lrc() {
    check("all", "all 0.03 4", &[]);
}

#[test]
fn all_hlrc() {
    check("all_hlrc", "all 0.03 4 --protocol hlrc", &[]);
}

#[test]
fn ci_baseline_gates() {
    check(
        "gate_cri_jacobi",
        "compiler_opt 0.08 8 --check-baseline ci/cri_jacobi_baseline.txt",
        &[],
    );
    check(
        "gate_cri_igrid",
        "compiler_opt --app igrid --check-baseline ci/cri_igrid_baseline.txt",
        &[],
    );
    check(
        "gate_hlrc_jacobi",
        "protocol_compare 0.08 8 --check-baseline ci/hlrc_jacobi_baseline.txt",
        &[],
    );
}

#[test]
fn race_gates() {
    check("races", "races 0.03 4", &[]);
    check("races_seeded", "races --seeded", &[]);
}

#[test]
fn trace_export() {
    check(
        "trace",
        "trace 0.03 4 --app jacobi --protocol hlrc --breakdown --out {tmp}/trace.json",
        &["json"],
    );
    let (result, out) = dsm(&format!(
        "trace --check {}/tests/golden/trace.json",
        env!("CARGO_MANIFEST_DIR")
    ));
    assert!(result.is_ok() && out.ends_with(" events)\n"), "{out}");
}

#[test]
fn analyze_report() {
    check(
        "analyze",
        "analyze 0.03 4 --app igrid --version cri --out {tmp}/analyze.json --gate-identity",
        &["json"],
    );
    let (result, out) = dsm(&format!(
        "analyze --check {}/tests/golden/analyze.json",
        env!("CARGO_MANIFEST_DIR")
    ));
    assert!(result.is_ok() && out.contains("exact=true"), "{out}");
}

#[test]
fn sweep_check_of_committed_trajectory() {
    check("sweep_check", "sweep --check BENCH_sweep.json", &[]);
}

/// Every argument a command would ignore, and every malformed value,
/// is a usage error (exit 2) raised before any simulation runs.
#[test]
fn rejects_what_a_command_does_not_read() {
    let cases = [
        // Flags the command ignores.
        "sweep --check BENCH_sweep.json --engine threaded",
        "sweep --protocol hlrc",
        "sweep --engine sequential",
        "table1 0.03 4",
        "table1 0.03 --protocol hlrc",
        "protocol_compare 0.03 4 --protocol hlrc",
        "races 0.03 4 --protocol hlrc",
        "races 0.03 4 --seeded",
        "races 0.5 --seeded --engine threaded",
        "trace --check trace.json --app igrid",
        "analyze --check report.json 0.03",
        // An --app naming no row, or given without the gate it selects.
        "compiler_opt --app nosuchapp --check-baseline ci/cri_igrid_baseline.txt",
        "compiler_opt --app nosuchapp",
        "compiler_opt 0.03 4 --app igrid",
        // Non-finite or non-positive scale, zero processors.
        "table1 inf",
        "figure1 NaN 4",
        "figure1 -0.5 4",
        "figure1 0.03 0",
        // Removed spellings.
        "compiler_opt --gate igrid --check-baseline ci/cri_igrid_baseline.txt",
        "figure2_table3 --trace-out t.json",
        "figure2_table3 --analyze",
        "protocol_compare --analyze",
        "analyze --json r.json",
        "trace --validate t.json",
        // Malformed command lines.
        "",
        "nosuchcommand",
        "figure1 0.03 4 8",
        "figure1 --engine",
        "figure1 --engine warp",
        "figure1 --engine threaded --engine sequential",
        "trace --breakdown=yes",
        "analyze 0.03 4 --top many",
    ];
    for args in cases {
        match dsm(args) {
            (Err(e @ Error::Usage(_)), out) => {
                assert_eq!(e.exit_code(), 2, "dsm {args}");
                assert!(out.is_empty(), "dsm {args} printed before failing:\n{out}");
            }
            (other, _) => panic!("dsm {args}: expected a usage error, got {other:?}"),
        }
    }
}

fn baseline(dir: &std::path::Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.display().to_string()
}

/// The regression gates' failing side: a baseline tightened below the
/// observed count fails the gate (exit 1); an unreadable or malformed
/// baseline is an input error (exit 2).
#[test]
fn gate_failures() {
    let dir = scratch("gates");
    let tight = baseline(&dir, "tight.txt", "0.03 4 1\n");
    for cmd in ["compiler_opt", "protocol_compare"] {
        match dsm(&format!("{cmd} --check-baseline {tight}")) {
            (Err(e @ Error::Gate(_)), out) => {
                assert_eq!(e.exit_code(), 1, "{cmd}");
                assert!(
                    out.contains("baseline check (scale 0.03, 4 procs)"),
                    "{out}"
                );
                assert!(!out.contains("baseline check passed"), "{out}");
            }
            (other, _) => panic!("{cmd} with a tightened baseline: got {other:?}"),
        }
    }
    let short = baseline(&dir, "short.txt", "0.03 4\n");
    let garbage = baseline(&dir, "garbage.txt", "scale nprocs max\n");
    let no_procs = baseline(&dir, "no_procs.txt", "0.03 0 5\n");
    let nan_scale = baseline(&dir, "nan_scale.txt", "NaN 4 5\n");
    let missing = dir.join("missing.txt").display().to_string();
    for file in [short, garbage, no_procs, nan_scale, missing] {
        for cmd in ["compiler_opt", "protocol_compare"] {
            let (result, out) = dsm(&format!("{cmd} --check-baseline {file}"));
            let code = result.as_ref().map_err(Error::exit_code);
            assert!(
                matches!(result, Err(Error::Io(_))),
                "{cmd} {file}: {result:?}"
            );
            assert_eq!(code, Err(2));
            assert!(
                out.is_empty(),
                "{cmd} {file} printed before failing:\n{out}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn identity_gate_passes_on_the_sequential_engine() {
    let (result, out) = dsm("analyze 0.03 4 --app jacobi --protocol hlrc --gate-identity");
    assert!(result.is_ok(), "{result:?}\n{out}");
    assert!(out.contains("(exact identity)"), "{out}");
    assert!(
        out.ends_with("analyze --gate-identity: ok (path length == max final clock, bitwise)\n")
    );
}

#[test]
fn help_lists_every_command() {
    let (result, out) = dsm("--help");
    assert!(result.is_ok());
    for cmd in [
        "table1",
        "compiler_opt",
        "races",
        "sweep",
        "trace",
        "analyze",
        "all",
    ] {
        assert!(
            out.contains(&format!("\n  {cmd} ")),
            "{cmd} missing from\n{out}"
        );
    }
}
