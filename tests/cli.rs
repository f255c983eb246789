//! The `aov` command line's contract, driven through the built binary:
//! usage errors exit 64 in every subcommand, the value guards refuse
//! degenerate values, and a few cheap end-to-end invocations keep their
//! exit codes and output shape. Nothing here starts a server or runs a
//! heavy example.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn aov(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aov"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("aov binary runs")
}

fn exit_code(args: &[&str]) -> i32 {
    aov(args).status.code().expect("aov exits normally")
}

fn assert_usage_error(args: &[&str]) {
    assert_eq!(
        exit_code(args),
        64,
        "`aov {}` must be a usage error",
        args.join(" ")
    );
}

/// A unique scratch file under cargo's per-target temporary directory.
fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}-{name}", std::process::id()))
}

#[test]
fn unknown_flags_missing_and_malformed_values_exit_64() {
    let cases: &[&[&str]] = &[
        // run (and the bare example form, which shares its parser)
        &["run", "examples/example1.aov", "--bogus"],
        &["run", "examples/example1.aov", "--workers"],
        &["run", "examples/example1.aov", "--workers", "many"],
        &["example1", "--budget-pivots", "lots"],
        &["example1", "--trace"],
        // bench
        &["bench", "--bogus"],
        &["bench", "--runs"],
        &["bench", "--runs", "two"],
        &["bench", "--budget-ms", "soon"],
        // fuzz
        &["fuzz", "--bogus"],
        &["fuzz", "--seed"],
        &["fuzz", "--count", "ten"],
        // trend: only --out takes a value
        &["trend", "BENCH_0.json", "BENCH_1.json", "--bogus"],
        &["trend", "BENCH_0.json", "BENCH_1.json", "--out"],
        &["trend", "BENCH_0.json"],
        // inspect and pdiff take no valued flags
        &["inspect", "BENCH_0.json", "--bogus"],
        &["inspect"],
        &["pdiff", "BENCH_0.json", "BENCH_1.json", "--time-rel", "0.1"],
        &["pdiff", "BENCH_0.json"],
        // aovd: refused while parsing, before anything binds
        &["aovd", "--bogus"],
        &["aovd", "--addr"],
        &["aovd", "--workers", "some"],
        // client: refused before any connection
        &["client", "--bogus"],
        &["client", "--addr"],
        &["client", "--retries", "few"],
        &["client", "--example", "example1", "--budget-nodes", "x"],
        // top: refused before any connection
        &["top", "--bogus"],
        &["top", "--interval-ms"],
        &["top", "--interval-ms", "fast"],
        // the global flag
        &["--recorder-slots"],
        &[
            "--recorder-slots",
            "big",
            "run",
            "--check",
            "examples/example1.aov",
        ],
        // no program at all
        &[],
    ];
    for args in cases {
        assert_usage_error(args);
    }
}

#[test]
fn value_guards_refuse_degenerate_values() {
    let cases: &[&[&str]] = &[
        &["example1", "--runs", "0"],
        &["bench", "--runs", "0"],
        &["bench", "--serve-clients", "0"],
        &["example1", "--params", ""],
        &["bench", "--examples", ","],
        // wall-clock budgets would make a campaign nondeterministic
        &["fuzz", "--budget-ms", "1"],
        // --check needs source text; built-in names have none
        &["example1", "--check"],
        &[
            "example1",
            "example2",
            "--profile-out",
            "never-written.json",
        ],
    ];
    for args in cases {
        assert_usage_error(args);
    }
    assert!(!Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("never-written.json")
        .exists());
}

#[test]
fn run_check_accepts_the_example_corpus() {
    let mut files: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples"))
            .expect("examples directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "aov"))
            .map(|p| p.display().to_string())
            .collect();
    files.sort();
    assert!(files.len() >= 5, "corpus: {files:?}");
    let mut args = vec!["run", "--check"];
    args.extend(files.iter().map(String::as_str));
    assert_eq!(exit_code(&args), 0);
}

#[test]
fn compact_report_is_one_line_and_passes_check_report() {
    let out = aov(&["example1", "--compact"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(text.matches('\n').count(), 1, "one line: {text}");
    assert!(text.ends_with('\n'));
    let path = scratch("example1.json");
    std::fs::write(&path, &text).expect("write report");
    let path_arg = path.display().to_string();
    let checked = exit_code(&["--check-report", &path_arg]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(checked, 0);
}

#[test]
fn recorder_slots_is_accepted_before_and_after_the_subcommand() {
    let file = "examples/example1.aov";
    assert_eq!(
        exit_code(&["--recorder-slots", "256", "run", "--check", file]),
        0
    );
    assert_eq!(
        exit_code(&["run", "--check", file, "--recorder-slots", "256"]),
        0
    );
    assert_eq!(
        exit_code(&["run", "--recorder-slots", "256", "--check", file]),
        0
    );
}
