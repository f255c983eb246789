//! The pipeline's stage ladder, driven through the public functions of
//! each crate instead of through `aov_engine::Pipeline`.
//!
//! Every stage is one timed call under a `bench.<stage>` span. Stages
//! carry the engine's stage names, plus `parse` for source inputs and
//! `uov_fallback`, which the engine times inside `aov`. The degradation
//! rules mirror the engine's: a solver error degrades the stage and the
//! stages that need its result are skipped, so the [`Answer`] of a
//! direct-call pass must equal the one the engine reports for the same
//! program.

use std::time::Instant;

use aov_core::problems::{self, DEFAULT_SEARCH_RADIUS};
use aov_core::transform::StorageTransform;
use aov_core::{codegen, uov};
use aov_fault::Budget;
use aov_interp::validate::semantics_preserved;
use aov_ir::{analysis, ArrayId, Program, StmtId};
use aov_schedule::{legal, scheduler, Schedule};
use aov_support::alloc;

/// Stage names, in ladder order. `parse` runs only for programs that
/// arrive as source text; `uov_fallback` only when the Farkas AOV fails.
pub const STAGES: [&str; 12] = [
    "parse",
    "ir",
    "dependences",
    "legal_schedule",
    "schedule",
    "problem1",
    "aov",
    "uov_fallback",
    "problem2",
    "storage_transform",
    "codegen",
    "equivalence",
];

/// The published results of one analysis — what both the engine report
/// and a direct-call pass must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub theta: Option<String>,
    pub ov: Option<Vec<Vec<i64>>>,
    pub aov: Option<Vec<Vec<i64>>>,
    pub aov_source: Option<&'static str>,
    pub theta2: Option<String>,
    pub code: Option<String>,
    pub equivalent: Option<bool>,
}

impl Answer {
    /// The same fields as read from an engine report.
    pub fn of_report(r: &aov_engine::Report) -> Answer {
        let theta = |stage: &str| {
            r.stage(stage)
                .and_then(|s| s.detail.get("theta"))
                .and_then(|t| match t {
                    aov_support::Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
        };
        Answer {
            theta: theta("schedule"),
            ov: r.ov.as_ref().map(vectors),
            aov: r.aov.as_ref().map(vectors),
            aov_source: r.aov_source,
            theta2: theta("problem2"),
            code: r.code.clone(),
            equivalent: r.equivalent,
        }
    }

    /// FNV-1a digest of every field (vectors, schedules and code).
    pub fn digest(&self) -> u64 {
        aov_support::digest::fnv1a_64(format!("{self:?}").as_bytes())
    }
}

fn vectors(ov: &problems::OvResult) -> Vec<Vec<i64>> {
    ov.vectors()
        .iter()
        .map(|v| v.components().to_vec())
        .collect()
}

/// Per-stage measurements of one direct-call run, indexed like [`STAGES`].
#[derive(Debug, Clone, Default)]
pub struct StageCosts {
    pub nanos: [u64; STAGES.len()],
    pub allocs: [u64; STAGES.len()],
    pub alloc_bytes: [u64; STAGES.len()],
}

impl StageCosts {
    pub fn add(&mut self, other: &StageCosts) {
        for k in 0..STAGES.len() {
            self.nanos[k] += other.nanos[k];
            self.allocs[k] += other.allocs[k];
            self.alloc_bytes[k] += other.alloc_bytes[k];
        }
    }

    /// Nanoseconds spent in `stage`.
    pub fn nanos_of(&self, stage: &str) -> u64 {
        self.nanos[index(stage)]
    }

    /// Runs `f` as stage `name`, charging its time and heap traffic.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let k = index(name);
        let _span = aov_trace::span!(format!("bench.{name}"));
        let a0 = alloc::stats();
        let t0 = Instant::now();
        let out = f();
        self.nanos[k] += t0.elapsed().as_nanos() as u64;
        let a1 = alloc::stats();
        self.allocs[k] += a1.allocs - a0.allocs;
        self.alloc_bytes[k] += a1.bytes - a0.bytes;
        out
    }
}

fn index(stage: &str) -> usize {
    STAGES
        .iter()
        .position(|s| *s == stage)
        .expect("a ladder stage name")
}

/// What a program is handed to the ladder as.
pub enum Input<'a> {
    Program(&'a Program),
    Source(&'a str),
}

/// Runs the whole ladder once. `check_params` are the equivalence
/// parameters the engine used (its report carries them) and `budget`
/// is a fresh budget with the engine run's limits.
///
/// # Errors
///
/// A message when the input does not parse or validate — the engine
/// fails such a run hard.
pub fn run(
    input: Input<'_>,
    check_params: &[i64],
    budget: &Budget,
) -> Result<(Answer, StageCosts), String> {
    let mut c = StageCosts::default();
    let parsed;
    let p: &Program = match input {
        Input::Program(p) => p,
        Input::Source(src) => {
            parsed = c
                .time("parse", || aov_lang::parse(src))
                .map_err(|d| format!("parse: {d}"))?;
            &parsed
        }
    };
    c.time("ir", || p.validate())
        .map_err(|e| format!("invalid program: {e}"))?;
    c.time("dependences", || analysis::dependences(p));
    c.time("legal_schedule", || legal_cone(p));

    let sched: Option<Schedule> = c.time("schedule", || {
        match scheduler::find_schedule_with_budgeted(p, &[], budget) {
            Ok(s) => Some(s),
            Err(scheduler::ScheduleError::Infeasible) => {
                // The engine names the violated dependence here.
                legal::unschedulable_diagnostic(p);
                None
            }
            Err(_) => None,
        }
    });
    let ov = sched.as_ref().and_then(|s| {
        c.time("problem1", || {
            problems::ov_for_schedule_budgeted(p, s, 1, budget).ok()
        })
    });
    let aov = match c.time("aov", || problems::aov_budgeted(p, 1, budget)) {
        Ok(a) => Some((a, "farkas")),
        Err(_) => c
            .time("uov_fallback", || {
                uov::shortest_uov_all(p, DEFAULT_SEARCH_RADIUS)
            })
            .ok()
            .map(|u| (u, "uov")),
    };
    let sched2 = aov.as_ref().and_then(|(a, _)| {
        c.time("problem2", || {
            problems::best_schedule_for_ov_budgeted(p, a.vectors(), budget).ok()
        })
    });
    let transforms: Option<Vec<StorageTransform>> = aov.as_ref().and_then(|(a, _)| {
        c.time("storage_transform", || {
            a.vectors()
                .iter()
                .enumerate()
                .map(|(aidx, v)| StorageTransform::new(p, ArrayId(aidx), v))
                .collect::<Result<Vec<_>, _>>()
                .ok()
        })
    });
    let code = transforms
        .as_ref()
        .map(|ts| c.time("codegen", || codegen::transformed_code(p, ts)));
    let equivalent = match &transforms {
        Some(ts) if sched.is_some() || sched2.is_some() => Some(c.time("equivalence", || {
            // Both schedules are replayed, as in the engine.
            [&sched, &sched2]
                .into_iter()
                .flatten()
                .map(|s| semantics_preserved(p, check_params, s, ts))
                .fold(true, |all, ok| all & ok)
        })),
        _ => None,
    };

    let answer = Answer {
        theta: sched.as_ref().map(|s| s.display(p).to_string()),
        ov: ov.as_ref().map(vectors),
        aov: aov.as_ref().map(|(a, _)| vectors(a)),
        aov_source: aov.as_ref().map(|(_, src)| *src),
        theta2: sched2.as_ref().map(|s| s.display(p).to_string()),
        code,
        equivalent,
    };
    Ok((answer, c))
}

/// The engine's `legal_schedule` stage: the legal-schedule polyhedron
/// and its projection onto the iteration coefficients.
fn legal_cone(p: &Program) {
    let Ok((space, poly)) = legal::legal_schedule_polyhedron(p) else {
        return;
    };
    let mut drop_dims = Vec::new();
    for s in 0..space.num_statements() {
        for j in 0..p.params().len() {
            drop_dims.push(space.param_coeff(StmtId(s), j));
        }
        drop_dims.push(space.const_coeff(StmtId(s)));
    }
    poly.eliminate_dims(&drop_dims);
}
