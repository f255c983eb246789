//! `aov-perfbench`: cold/warm end-to-end timings of the aov pipeline and
//! a per-layer breakdown from a separate traced pass.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload examples-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, `workers = 1`, a closed loop: the next
//! program starts when the previous one returns. `--trace 0` measures
//! untraced passes through `aov_engine::Pipeline` for `--seconds` and
//! prints the end-to-end metrics, scaled to the host's quiet speed (see
//! [`reference`]); `--trace 1` runs one untraced engine
//! pass and one traced pass of direct stage calls (see [`ladder`]) and
//! prints the per-layer metrics. The last line of stdout is the JSON
//! result. See `perfbench/README.md` for the workloads and the
//! metric-to-layer map.

mod ladder;
mod oracle;
mod reference;
mod spans;
mod stats;
mod substrates;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aov_engine::{BudgetSpec, Pipeline, Report};
use aov_gen::{generate, GenConfig};
use aov_ir::{examples, Program};
use aov_lp::memo;
use aov_support::rng::{mix, Rng};
use aov_support::{alloc, counters, Json};

use ladder::{Answer, Input, StageCosts, STAGES};
use oracle::Expected;

const EXPECTED: &str = include_str!("../expected.txt");

/// Programs in `gen-corpus`: the fewest that leave 10 above p90.
const CORPUS_SIZE: u64 = 100;

/// The work-only budget of `aov fuzz`, applied to generated programs.
const FUZZ_BUDGET: BudgetSpec = BudgetSpec {
    pivots: Some(2_000_000),
    nodes: Some(200_000),
    ms: None,
};

/// Set-up is repeated at least this often, and until it has taken
/// [`SETUP_MIN`]; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN: Duration = Duration::from_millis(500);

/// A failed run: the message goes to stderr and no result is printed.
struct Abort(String);

impl<T: Into<String>> From<T> for Abort {
    fn from(s: T) -> Abort {
        Abort(s.into())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corpus_seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--corpus-seed" => args.corpus_seed = value.parse().map_err(|_| bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["examples-cold", "gen-corpus", "examples-warm"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be examples-cold, gen-corpus or examples-warm, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// One program of a workload.
struct Case {
    name: String,
    input: CaseInput,
    /// Equivalence-check parameters; `None` lets the engine pick its
    /// per-example defaults.
    check_params: Option<Vec<i64>>,
    expected: Option<Expected>,
}

enum CaseInput {
    Program(Program),
    /// `.aov` source text: parsed inside the timed region.
    Source(String),
}

struct Workload {
    cases: Vec<Case>,
    /// Clear the LP memo before every program.
    cold: bool,
    budget: BudgetSpec,
}

/// Builds a workload's inputs. Warm set-up includes the untimed priming
/// pass that fills the LP memo.
fn setup(args: &Args) -> Result<Workload, Abort> {
    memo::set_enabled(true);
    let warm = args.workload == "examples-warm";
    if args.workload == "gen-corpus" {
        let cases = (0..CORPUS_SIZE)
            .map(|i| {
                let g = generate(mix(args.corpus_seed, i), &GenConfig::default());
                Case {
                    name: g.program.name().to_string(),
                    input: CaseInput::Source(g.source),
                    check_params: Some(g.check_params),
                    expected: None,
                }
            })
            .collect();
        return Ok(Workload {
            cases,
            cold: true,
            budget: FUZZ_BUDGET,
        });
    }
    let mut expected = oracle::expected_answers(EXPECTED)?;
    let names: &[&str] = if warm {
        &["example1", "example2", "example4"]
    } else {
        &["example1", "example2", "example4", "unschedulable"]
    };
    let cases = names
        .iter()
        .map(|&name| {
            let program = match name {
                "example1" => examples::example1(),
                "example2" => examples::example2(),
                "example4" => examples::example4(),
                _ => examples::unschedulable(),
            };
            let k = expected.iter().position(|(n, _)| n == name)?;
            Some(Case {
                name: name.to_string(),
                input: CaseInput::Program(program),
                check_params: None,
                expected: Some(expected.swap_remove(k).1),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("expected.txt lacks a workload program")?;
    let w = Workload {
        cases,
        cold: !warm,
        budget: BudgetSpec::default(),
    };
    if warm {
        memo::clear();
        for case in &w.cases {
            analyse(&w, case)
                .2
                .map_err(|e| format!("priming {}: {e}", case.name))?;
        }
    }
    Ok(w)
}

/// Runs set-up repeatedly; returns the last workload and the median
/// set-up time in seconds, each set-up scaled to the quiet speed.
fn timed_setup(args: &Args) -> Result<(Workload, f64), Abort> {
    let mut times = Vec::new();
    let mut clock = reference::Clock::new();
    let started = Instant::now();
    loop {
        clock.sample();
        let t0 = Instant::now();
        let w = setup(args)?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && started.elapsed() >= SETUP_MIN {
            clock.sample();
            let scaled: Vec<f64> = times
                .iter()
                .enumerate()
                .map(|(k, t)| t * clock.scale(k))
                .collect();
            return Ok((w, stats::median(&scaled)));
        }
    }
}

fn pipeline(w: &Workload, case: &Case, program: Program) -> Pipeline {
    let p = Pipeline::new(program)
        .workers(1)
        .memoize(true)
        .budget(w.budget);
    match &case.check_params {
        Some(params) => p.check_params(params.clone()),
        None => p,
    }
}

/// Analyses one program through the engine: parse (source inputs) and
/// `Pipeline::run`. Returns the parse time, the `Pipeline::run` time and
/// the report.
fn analyse(w: &Workload, case: &Case) -> (Duration, Duration, Result<Report, String>) {
    let mut parse = Duration::ZERO;
    let mut engine = Duration::ZERO;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let program = match &case.input {
            CaseInput::Program(p) => p.clone(),
            CaseInput::Source(src) => {
                let t0 = Instant::now();
                let parsed = aov_lang::parse(src).map_err(|d| format!("parse: {d}"));
                parse = t0.elapsed();
                parsed?
            }
        };
        let t0 = Instant::now();
        let report = pipeline(w, case, program).run().map_err(|e| e.to_string());
        engine = t0.elapsed();
        report
    }));
    let report = run.unwrap_or_else(|_| Err(format!("{}: panic", case.name)));
    (parse, engine, report)
}

/// Clears the memo before a cold program and checks that it is empty.
fn make_cold(w: &Workload) -> Result<(), Abort> {
    if w.cold {
        memo::clear();
        if memo::len() != 0 {
            return Err("the LP memo is not empty after clearing it".into());
        }
    }
    Ok(())
}

/// One untraced pass through the engine, in the given order.
struct EnginePass {
    /// The pass's wall time: its programs' times, back to back.
    wall: Duration,
    /// Per case (workload order): wall of parse + engine.
    case_wall: Vec<Duration>,
    /// Per case: `case_wall` in seconds, scaled to the quiet speed.
    case_scaled_s: Vec<f64>,
    /// Summed over the pass: parse time and `Pipeline::run` time.
    parse: Duration,
    engine: Duration,
    reports: Vec<Result<Report, String>>,
    /// Median reference kernel time of the pass, in nanoseconds.
    reference_ns: f64,
}

fn engine_pass(w: &Workload, order: &[usize]) -> Result<EnginePass, Abort> {
    let n = w.cases.len();
    let mut pass = EnginePass {
        wall: Duration::ZERO,
        case_wall: vec![Duration::ZERO; n],
        case_scaled_s: vec![0.0; n],
        parse: Duration::ZERO,
        engine: Duration::ZERO,
        reports: (0..n).map(|_| Err(String::new())).collect(),
        reference_ns: 0.0,
    };
    let mut clock = reference::Clock::new();
    let before = counters::snapshot();
    for &i in order {
        make_cold(w)?;
        clock.sample();
        let (parse, engine, report) = analyse(w, &w.cases[i]);
        pass.case_wall[i] = parse + engine;
        pass.wall += parse + engine;
        pass.parse += parse;
        pass.engine += engine;
        pass.reports[i] = report;
    }
    clock.sample();
    for (k, &i) in order.iter().enumerate() {
        pass.case_scaled_s[i] = pass.case_wall[i].as_secs_f64() * clock.scale(k);
    }
    pass.reference_ns = clock.median_ns();
    check_protocol(
        w,
        &counters::delta(&before, &counters::snapshot()),
        "engine pass",
    )?;
    Ok(pass)
}

fn counter(delta: &[(String, u64)], name: &str) -> u64 {
    delta.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// Cold passes must do simplex work and miss the memo; a warm pass must
/// be served from the memo alone. A pass that breaks this measured
/// something else, so the run fails.
fn check_protocol(w: &Workload, delta: &[(String, u64)], what: &str) -> Result<(), Abort> {
    let pivots = counter(delta, "lp.simplex.pivots");
    let misses = counter(delta, "lp.memo.misses");
    if w.cold && (pivots == 0 || misses == 0) {
        return Err(format!("cold {what}: {pivots} pivots, {misses} memo misses").into());
    }
    if !w.cold && pivots != 0 {
        return Err(format!("warm {what}: {pivots} pivots, expected 0").into());
    }
    Ok(())
}

/// The seed's program order for pass `k`.
fn order(n: usize, seed: u64, k: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(mix(seed, k)).shuffle(&mut order);
    order
}

/// Checks every report of a pass with the oracle; `None` per case when
/// it holds, the reason otherwise.
fn check_reports(w: &Workload, reports: &[Result<Report, String>]) -> Vec<Option<String>> {
    w.cases
        .iter()
        .zip(reports)
        .map(|(case, r)| {
            let r = match r {
                Ok(r) => r,
                Err(e) => return Some(format!("{}: {e}", case.name)),
            };
            let verdict = match (&case.expected, &case.input) {
                (Some(exp), _) => oracle::check_expected(exp, r),
                (None, CaseInput::Source(src)) => aov_lang::parse(src)
                    .map_err(|d| d.to_string())
                    .and_then(|p| {
                        let params = case.check_params.as_deref().unwrap_or(&r.check_params);
                        oracle::check_generated(&p, params, r)
                    }),
                (None, CaseInput::Program(_)) => Err("no oracle for this program".to_string()),
            };
            verdict.err()
        })
        .collect()
}

fn answers(reports: &[Result<Report, String>]) -> Vec<Option<Answer>> {
    reports
        .iter()
        .map(|r| r.as_ref().ok().map(Answer::of_report))
        .collect()
}

/// What a run prints: correctness plus named metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

/// `--trace 0`: timed untraced engine passes for `--seconds`. Each
/// pass's times are scaled by its own reference samples.
fn timed_run(args: &Args) -> Result<Outcome, Abort> {
    alloc::set_counting(false);
    aov_trace::set_enabled(false);
    let (w, setup_s) = timed_setup(args)?;
    let n = w.cases.len();
    let window = Duration::from_secs_f64(args.seconds);
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut reference_ns = Vec::new();
    let mut case_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    // The first pass's reports go to the oracle; later passes must
    // reproduce their answers.
    let mut reports = Vec::new();
    let mut want = Vec::new();
    let mut drifted = vec![0u64; n];
    let started = Instant::now();
    loop {
        let pass = engine_pass(&w, &order(n, args.seed, walls.len() as u64))?;
        walls.push(pass.case_scaled_s.iter().sum::<f64>());
        raw_walls.push(pass.wall.as_secs_f64());
        reference_ns.push(pass.reference_ns);
        for (ms, s) in case_ms.iter_mut().zip(&pass.case_scaled_s) {
            ms.push(s * 1e3);
        }
        let got = answers(&pass.reports);
        if walls.len() == 1 {
            want = got;
            reports = pass.reports;
        } else {
            for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                drifted[k] += u64::from(a != b);
            }
        }
        // Start another pass only if it fits in the window.
        if started.elapsed() + pass.wall > window {
            break;
        }
    }
    let passes = walls.len() as u64;
    let verdicts = check_reports(&w, &reports);
    let mut notes = Vec::new();
    let mut failed = 0;
    for (k, v) in verdicts.iter().enumerate() {
        if let Some(why) = v {
            notes.push(format!("FAILED {why}"));
            failed += passes;
        } else if drifted[k] > 0 {
            notes.push(format!(
                "FAILED {}: answers differ across passes",
                w.cases[k].name
            ));
            failed += drifted[k];
        }
    }
    let decided = reports
        .iter()
        .filter(|r| r.as_ref().is_ok_and(oracle::decided))
        .count();
    let digest = want.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, a| {
        mix(h, a.as_ref().map_or(0, Answer::digest))
    });
    notes.push(format!(
        "answers digest {digest:016x} over {passes} pass(es)"
    ));
    notes.push(format!("pass walls as measured (s): {raw_walls:.3?}"));
    notes.push(format!(
        "median pass wall {:.3} s as measured, {:.3} s scaled",
        stats::median(&raw_walls),
        stats::median(&walls)
    ));
    notes.push(format!(
        "median reference kernel time per pass (quiet: {:.0} ns): {reference_ns:.0?}",
        reference::NOMINAL_NS
    ));
    let per_case: Vec<f64> = case_ms.iter().map(|ms| stats::median(ms)).collect();
    // One row per program of the example workloads.
    if n <= 8 {
        for (case, ms) in w.cases.iter().zip(&per_case) {
            notes.push(format!(
                "{:<16} {:>12.3} ms (scaled, median over passes)",
                case.name, ms
            ));
        }
    }
    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("wall_s".to_string(), stats::median(&walls), "s"),
        (
            "program_ms.p50".to_string(),
            stats::harrell_davis(&per_case, 0.5),
            "ms",
        ),
        (
            "program_ms.p90".to_string(),
            stats::harrell_davis(&per_case, 0.9),
            "ms",
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb()?, "MiB"),
        (
            "decided_share".to_string(),
            decided as f64 / n as f64,
            "share",
        ),
    ];
    Ok(Outcome {
        attempted: passes * n as u64,
        failed,
        metrics,
        notes,
    })
}

/// The traced direct-call pass over the workload (see [`ladder`]):
/// tracing and the counting allocator are on only while it runs.
struct DirectPass {
    answers: Vec<Result<Answer, String>>,
    costs: StageCosts,
    wall_ns: u64,
    spans: spans::Totals,
    counters: Vec<(String, u64)>,
}

fn direct_pass(w: &Workload, order: &[usize], params: &[Vec<i64>]) -> Result<DirectPass, Abort> {
    let mut pass = DirectPass {
        answers: (0..w.cases.len()).map(|_| Err(String::new())).collect(),
        costs: StageCosts::default(),
        wall_ns: 0,
        spans: spans::Totals::default(),
        counters: Vec::new(),
    };
    alloc::set_counting(true);
    aov_trace::set_enabled(true);
    aov_trace::clear();
    let before = counters::snapshot();
    for &i in order {
        make_cold(w)?;
        let case = &w.cases[i];
        let budget = aov_fault::Budget::new(w.budget.pivots, w.budget.nodes, None);
        let input = match &case.input {
            CaseInput::Program(p) => Input::Program(p),
            CaseInput::Source(src) => Input::Source(src),
        };
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| ladder::run(input, &params[i], &budget)));
        pass.wall_ns += t0.elapsed().as_nanos() as u64;
        pass.answers[i] = match out {
            Ok(Ok((answer, costs))) => {
                pass.costs.add(&costs);
                Ok(answer)
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panic".to_string()),
        };
        pass.spans.add(&aov_trace::drain());
    }
    pass.counters = counters::delta(&before, &counters::snapshot());
    aov_trace::set_enabled(false);
    alloc::set_counting(false);
    check_protocol(w, &pass.counters, "direct-call pass")?;
    Ok(pass)
}

/// Per-layer stage metrics: `(stage, metric)`. Untraced times come from
/// the engine pass (its stage reports, and its own timing of `parse`).
const STAGE_METRICS: [(&str, &str); 11] = [
    ("parse", "lang.parse_ms"),
    ("ir", "ir.validate_ms"),
    ("dependences", "ir.dependences_ms"),
    ("legal_schedule", "schedule.legal_polyhedron_ms"),
    ("schedule", "schedule.find_schedule_ms"),
    ("problem1", "core.problem1_ms"),
    ("aov", "core.aov_ms"),
    ("problem2", "core.problem2_ms"),
    ("storage_transform", "core.storage_transform_ms"),
    ("codegen", "core.codegen_ms"),
    ("equivalence", "interp.equivalence_ms"),
];

/// `--trace 1`: the per-layer breakdown.
fn traced_run(args: &Args) -> Result<Outcome, Abort> {
    alloc::set_counting(false);
    aov_trace::set_enabled(false);
    let w = setup(args)?;
    let n = w.cases.len();
    let order = order(n, args.seed, 0);

    let engine = engine_pass(&w, &order)?;
    let verdicts = check_reports(&w, &engine.reports);
    let want = answers(&engine.reports);
    let params: Vec<Vec<i64>> = engine
        .reports
        .iter()
        .zip(&w.cases)
        .map(|(r, c)| match (&c.check_params, r) {
            (Some(p), _) => p.clone(),
            (None, Ok(r)) => r.check_params.clone(),
            (None, Err(_)) => Vec::new(),
        })
        .collect();
    let traced = direct_pass(&w, &order, &params)?;

    let mut notes = Vec::new();
    let mut failed = 0;
    for k in 0..n {
        let mut why: Vec<String> = verdicts[k].iter().cloned().collect();
        if traced.answers[k].as_ref().ok() != want[k].as_ref() {
            why.push(format!(
                "{}: direct calls differ from the engine",
                w.cases[k].name
            ));
        }
        if !why.is_empty() {
            notes.push(format!("FAILED {}", why.join("; ")));
            failed += 1;
        }
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let untraced_ns = |stage: &str| -> u64 {
        if stage == "parse" {
            return engine.parse.as_nanos() as u64;
        }
        let micros: u128 = engine
            .reports
            .iter()
            .flatten()
            .filter_map(|r| r.stage(stage))
            .map(|s| s.micros)
            .sum();
        micros as u64 * 1000
    };
    // The engine times the UOV fallback inside its `aov` stage.
    let traced_ns = |stage: &str| -> u64 {
        let fallback = if stage == "aov" {
            traced.costs.nanos_of("uov_fallback")
        } else {
            0
        };
        traced.costs.nanos_of(stage) + fallback
    };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    for (stage, name) in STAGE_METRICS {
        m.push((name.to_string(), ms(untraced_ns(stage)), "ms"));
    }
    m.push((
        "core.uov_fallback_ms".to_string(),
        ms(traced.costs.nanos_of("uov_fallback")),
        "ms",
    ));
    for span in [
        "farkas.system",
        "farkas.model_build",
        "core.storage_forms_for_dep",
        "lp.simplex",
        "lp.canonicalize",
        "lp.memo.lookup",
        "p2.dd.step",
    ] {
        m.push((
            format!("{span}.self_ms"),
            ms(traced.spans.self_ns(span)),
            "ms",
        ));
    }
    m.push((
        "p2.chamber.total_ms".to_string(),
        ms(traced.spans.outermost_ns("p2.chamber")),
        "ms",
    ));
    let c = |name: &str| counter(&traced.counters, name);
    for name in [
        "lp.simplex.pivots",
        "lp.simplex.degenerate_pivots",
        "lp.bb.nodes",
        "lp.memo.hits",
        "lp.memo.misses",
        "polyhedra.dd.conversions",
        "polyhedra.param.chambers",
        "polyhedra.param.chamber_splits",
        "polyhedra.fm.eliminations",
        "lp.simplex.coeff_limbs_total",
    ] {
        m.push((name.to_string(), c(name) as f64, "count"));
    }
    let lookups = c("lp.memo.hits") + c("lp.memo.misses");
    m.push(("lp.memo.lookups".to_string(), lookups as f64, "count"));
    m.push((
        "lp.memo.hit_ratio".to_string(),
        if lookups == 0 {
            0.0
        } else {
            c("lp.memo.hits") as f64 / lookups as f64
        },
        "share",
    ));
    m.push((
        "lp.simplex.coeff_bits_max".to_string(),
        counters::counter("lp.simplex.coeff_bits_max").load(std::sync::atomic::Ordering::Relaxed)
            as f64,
        "bits",
    ));
    for (k, stage) in STAGES.iter().enumerate() {
        m.push((
            format!("alloc.{stage}.count"),
            traced.costs.allocs[k] as f64,
            "count",
        ));
        m.push((
            format!("alloc.{stage}.bytes"),
            traced.costs.alloc_bytes[k] as f64,
            "bytes",
        ));
    }
    for (stage, _) in STAGE_METRICS {
        let (t, u) = (traced_ns(stage), untraced_ns(stage));
        let ratio = if u == 0 { 0.0 } else { t as f64 / u as f64 };
        m.push((format!("observer.{stage}"), ratio, "ratio"));
    }
    let stages_ns: u64 = STAGE_METRICS[1..].iter().map(|(s, _)| untraced_ns(s)).sum();
    m.push((
        "engine.overhead_ms".to_string(),
        ms(engine.engine.as_nanos() as u64) - ms(stages_ns),
        "ms",
    ));
    m.push((
        "unattributed_ms".to_string(),
        ms(traced.wall_ns) - ms(traced.spans.total_self_ns()),
        "ms",
    ));
    for (name, value, unit) in substrates::measure() {
        m.push((name.to_string(), value, unit));
    }
    notes.push(format!(
        "engine pass {:.3} s, traced direct-call pass {:.3} s",
        engine.wall.as_secs_f64(),
        traced.wall_ns as f64 / 1e9
    ));
    Ok(Outcome {
        attempted: n as u64,
        failed,
        metrics: m,
        notes,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, Abort> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aov-perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let out = match outcome {
        Ok(o) => o,
        Err(Abort(e)) => {
            eprintln!("aov-perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} (seed {}, trace {}): {} attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mut metrics = Json::obj();
    for (name, value, unit) in &out.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
        metrics = metrics.field(
            name,
            Json::obj()
                .field("value", Json::Float(*value))
                .field("unit", *unit),
        );
    }
    let result = Json::obj()
        .field("correct", out.failed == 0)
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("metrics", metrics);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}
