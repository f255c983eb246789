//! The correctness oracle behind `failed` and `decided_share`.
//!
//! * The paper's programs are checked against the hand-written answers
//!   in `expected.txt`.
//! * A generated program's report is checked the way `aov fuzz` checks
//!   it: the storage transforms are rebuilt from the report's
//!   *published* vectors and replayed through the interpreter, so the
//!   engine's own equivalence stage is not the only witness.
//! * Every report must match the engine's report schema.

use aov_core::problems;
use aov_core::transform::StorageTransform;
use aov_engine::{report_schema, Health, Report, StageOutcome};
use aov_interp::validate::semantics_preserved;
use aov_ir::{ArrayId, Program};
use aov_support::ToJson;

/// The answer one paper program must produce.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The AOV per array (array order) with equivalence confirmed.
    Vectors(Vec<(String, Vec<i64>)>),
    /// No schedule: `stage` degrades with a reason containing `names`.
    Degraded { stage: String, names: String },
}

/// Parses `expected.txt` into `(program, answer)` pairs.
///
/// # Errors
///
/// A message naming the malformed line.
pub fn expected_answers(text: &str) -> Result<Vec<(String, Expected)>, String> {
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("expected.txt: malformed line {line:?}");
        let (program, rest) = line.split_once(' ').ok_or_else(bad)?;
        let answer = if let Some(rest) = rest.strip_prefix("degraded-at=") {
            let (stage, names) = rest.split_once(" names=").ok_or_else(bad)?;
            Expected::Degraded {
                stage: stage.to_string(),
                names: names.to_string(),
            }
        } else {
            let words: Vec<&str> = rest.split_whitespace().collect();
            let (last, vectors) = words.split_last().ok_or_else(bad)?;
            if *last != "equivalent" {
                return Err(bad());
            }
            let vectors = vectors
                .iter()
                .map(|w| {
                    let (array, comps) = w.split_once('=')?;
                    let comps = comps
                        .split(',')
                        .map(|c| c.parse().ok())
                        .collect::<Option<_>>()?;
                    Some((array.to_string(), comps))
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(bad)?;
            Expected::Vectors(vectors)
        };
        out.push((program.to_string(), answer));
    }
    Ok(out)
}

/// Checks a paper program's report against its expected answer.
///
/// # Errors
///
/// What differs.
pub fn check_expected(expected: &Expected, r: &Report) -> Result<(), String> {
    check_schema(r)?;
    match expected {
        Expected::Vectors(want) => {
            let got: Vec<(String, Vec<i64>)> = match &r.aov {
                Some(aov) => r
                    .arrays
                    .iter()
                    .cloned()
                    .zip(aov.vectors().iter().map(|v| v.components().to_vec()))
                    .collect(),
                None => Vec::new(),
            };
            if &got != want {
                return Err(format!("{}: AOV {got:?}, expected {want:?}", r.program));
            }
            if r.equivalent != Some(true) {
                return Err(format!("{}: equivalence {:?}", r.program, r.equivalent));
            }
        }
        Expected::Degraded { stage, names } => {
            let outcome = r.stage(stage).map(|s| &s.outcome);
            match outcome {
                Some(StageOutcome::Degraded { reason }) if reason.contains(names.as_str()) => {}
                other => {
                    return Err(format!(
                        "{}: stage {stage} is {other:?}, expected degraded naming {names:?}",
                        r.program
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Checks a generated program's report: no hard failure, no refuted
/// equivalence, and a healthy report's published vectors survive an
/// independent interpreter replay.
///
/// # Errors
///
/// What failed.
pub fn check_generated(p: &Program, check_params: &[i64], r: &Report) -> Result<(), String> {
    check_schema(r)?;
    if r.health() == Health::Failed {
        return Err(format!("{}: a stage failed hard", r.program));
    }
    if r.equivalent == Some(false) {
        return Err(format!(
            "{}: the engine refuted its own transform",
            r.program
        ));
    }
    if r.health() != Health::Ok {
        return Ok(());
    }
    let Some(aov) = &r.aov else {
        return Ok(());
    };
    let transforms = aov
        .vectors()
        .iter()
        .enumerate()
        .map(|(aidx, v)| StorageTransform::new(p, ArrayId(aidx), v))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: published AOV is not transformable: {e}", r.program))?;
    let sched = problems::best_schedule_for_ov(p, aov.vectors())
        .map_err(|e| format!("{}: no schedule for the published AOV: {e}", r.program))?;
    if !semantics_preserved(p, check_params, &sched, &transforms) {
        return Err(format!(
            "{}: replay differs from the reference values",
            r.program
        ));
    }
    Ok(())
}

fn check_schema(r: &Report) -> Result<(), String> {
    aov_support::schema::validate(&r.to_json(), &report_schema())
        .map_err(|e| format!("{}: report violates the schema: {e:?}", r.program))
}

/// A decided program: healthy, answered by the paper's Farkas method,
/// and with equivalence confirmed.
pub fn decided(r: &Report) -> bool {
    r.health() == Health::Ok && r.aov_source == Some("farkas") && r.equivalent == Some(true)
}
