//! Parity of the joint `(i, N)` linearization with the
//! parameterized-vertex formulation.
//!
//! `linearize::eliminate_to_linear_tagged` applies Theorem 1 once to
//! the joint polyhedron `system ∩ (ℚ^{n_elim} × param_domain)`. The
//! two-step formulation — Loechner–Wilde vertices `Γ(N)` of the
//! iteration polytope on each chamber of the parameter domain, then the
//! chamber's own vertices and rays — is rebuilt here from
//! `param::parameterized_vertices`, and the two row sets must imply each
//! other (one LP per row) for every form the pipeline linearizes: the
//! causality forms, the pattern-independent storage forms, and the
//! concrete storage forms over `Z` for a few occupancy vectors.
//!
//! Row kinds take part in the comparison: each row gets one extra
//! unknown `w` with coefficient 1 on point rows and 0 on direction rows
//! — exactly how the storage solvers couple `v·Θ` to point rows only —
//! so a row whose kind flipped would break the implication.

use aov::core::storage::exact_z;
use aov::ir::{analysis, examples, Program};
use aov::linalg::AffineExpr;
use aov::polyhedra::{param, Constraint, Polyhedron};
use aov::schedule::linearize::{eliminate_to_linear_tagged, RowKind};
use aov::schedule::{legal, BilinearForm, ScheduleSpace};

type Rows = Vec<(AffineExpr, RowKind)>;

/// The chamber formulation: eliminate `i` at the parameterized vertices
/// of each chamber, then `N` at the chamber's generators. Rows that are
/// trivially true (nonnegative constants) are dropped, as
/// `eliminate_to_linear_tagged` drops them.
fn chamber_rows(form: &BilinearForm, chambers: &[param::Chamber]) -> Rows {
    let n_params = chambers.first().map_or(0, |c| c.domain.dim());
    let mut out = Vec::new();
    for chamber in chambers {
        if chamber.vertices.is_empty() {
            continue;
        }
        let gens = chamber.domain.generators();
        for vertex in &chamber.vertices {
            // i := Γ(N): the form's domain becomes N alone.
            let mut subs = vertex.coords.clone();
            subs.extend((0..n_params).map(|j| AffineExpr::var(n_params, j)));
            let f = BilinearForm::new(
                (0..form.num_unknowns())
                    .map(|e| form.coeff(e).substitute(&subs))
                    .collect(),
                form.constant().substitute(&subs),
            );
            for w in &gens.vertices {
                out.push((f.at_point(w), RowKind::Point));
            }
            for r in &gens.rays {
                out.push((f.linear_part_along(r), RowKind::Direction));
            }
            for l in &gens.lines {
                let lin = f.linear_part_along(l);
                out.push((-&lin, RowKind::Direction));
                out.push((lin, RowKind::Direction));
            }
        }
    }
    out.retain(|(row, _)| !row.is_constant() || row.constant_term().is_negative());
    out
}

/// Appends the point-row marker unknown `w` (see the module docs).
fn lift(rows: &Rows) -> Vec<AffineExpr> {
    let mut out: Vec<AffineExpr> = Vec::new();
    for (row, kind) in rows {
        let mut coeffs: Vec<_> = row.coeffs().iter().cloned().collect();
        coeffs.push(if *kind == RowKind::Point { 1 } else { 0 }.into());
        let lifted =
            AffineExpr::from_parts(coeffs.into_iter().collect(), row.constant_term().clone());
        if !out.contains(&lifted) {
            out.push(lifted);
        }
    }
    out
}

/// Every row of `to` is implied by the rows of `from` (an infeasible
/// `from` implies everything).
fn implies_all(dim: usize, from: &[AffineExpr], to: &[AffineExpr]) -> bool {
    let poly =
        Polyhedron::from_constraints(dim, from.iter().cloned().map(Constraint::ge0).collect());
    to.iter().all(|row| poly.implies_nonneg(row))
}

/// Checks the named forms over one system (the parameterized vertices
/// are computed once for all of them). Returns the number of forms
/// both formulations linearized.
fn check_forms(
    what: &str,
    forms: &[(String, BilinearForm)],
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
) -> usize {
    let chambers = match param::parameterized_vertices(system, n_elim, param_domain) {
        Ok(chambers) => chambers,
        Err(e) => {
            for (name, form) in forms {
                let joint = eliminate_to_linear_tagged(form, system, n_elim, param_domain);
                assert_eq!(joint, Err(e.clone()), "{what} {name}");
            }
            return 0;
        }
    };
    for (name, form) in forms {
        let joint = eliminate_to_linear_tagged(form, system, n_elim, param_domain)
            .unwrap_or_else(|e| panic!("{what} {name}: joint fails alone: {e}"));
        let dim = form.num_unknowns() + 1;
        let (joint, chambers) = (lift(&joint), lift(&chamber_rows(form, &chambers)));
        assert!(
            implies_all(dim, &chambers, &joint),
            "{what} {name}: a joint row is not implied by the chamber rows"
        );
        assert!(
            implies_all(dim, &joint, &chambers),
            "{what} {name}: a chamber row is not implied by the joint rows"
        );
    }
    forms.len()
}

/// Every kind of form the pipeline linearizes for `p`: per dependence,
/// the causality and storage forms over its domain, and the concrete
/// storage form over `Z` for each of `vectors(source depth)`. Returns
/// the number of forms both formulations linearized.
fn check_program(p: &Program, vectors: impl Fn(usize) -> Vec<Vec<i64>>) -> usize {
    let space = ScheduleSpace::new(p);
    let mut checked = 0;
    for (k, dep) in analysis::dependences(p).iter().enumerate() {
        let what = format!("{} dep #{k}", p.name());
        let depth = p.statement(dep.target).depth();
        let dim = depth + p.num_params();
        let forms = [
            (
                "causality".to_string(),
                legal::causality_form(p, &space, dep),
            ),
            (
                "storage".to_string(),
                legal::difference_form(p, &space, dep, &dep.h, 0).negated(),
            ),
        ];
        checked += check_forms(&what, &forms, &dep.domain, depth, p.param_domain());
        for v in vectors(p.statement(dep.source).depth()) {
            let h_plus_v: Vec<AffineExpr> = dep
                .h
                .iter()
                .zip(&v)
                .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                .collect();
            let form = legal::difference_form(p, &space, dep, &h_plus_v, 0).negated();
            checked += check_forms(
                &what,
                &[(format!("storage over Z, v = {v:?}"), form)],
                &exact_z(p, dep, &v),
                depth,
                p.param_domain(),
            );
        }
    }
    checked
}

/// The unit vectors and the all-ones vector of a `depth`-dim space.
fn probe_vectors(depth: usize) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = (0..depth)
        .map(|j| (0..depth).map(|i| i64::from(i == j)).collect())
        .collect();
    out.push(vec![1; depth]);
    out
}

#[test]
fn joint_rows_match_chamber_rows_on_the_paper_examples() {
    for p in [
        examples::example1(),
        examples::example2(),
        examples::example4(),
        examples::unschedulable(),
    ] {
        assert!(
            check_program(&p, probe_vectors) > 0,
            "{}: no forms",
            p.name()
        );
    }
    // Example 3's `Z` systems split into thousands of chambers (seconds
    // each); its dependence-domain forms are cheap and checked in full.
    assert!(check_program(&examples::example3(), |_| Vec::new()) > 0);
}

#[test]
fn joint_rows_match_chamber_rows_on_generated_programs() {
    let cfg = aov::gen::GenConfig::default();
    let mut forms = 0;
    for seed in 0..40 {
        forms += check_program(&aov::gen::generate(seed, &cfg).program, probe_vectors);
    }
    assert!(forms > 40, "only {forms} forms checked");
}

/// The joint enumeration keeps the parameterized-vertex contract on
/// unbounded iteration polytopes: both formulations fail, with the
/// same error (`check_forms` linearizes nothing).
#[test]
fn unbounded_iteration_polytope_fails_in_both_formulations() {
    // F(u, (i, n)) = i·u0 on i >= n, n >= 1: i has no upper bound.
    let form = BilinearForm::new(vec![AffineExpr::from_i64(&[1, 0], 0)], AffineExpr::zero(2));
    let system =
        Polyhedron::from_constraints(2, vec![Constraint::ge0(AffineExpr::from_i64(&[1, -1], 0))]);
    let params =
        Polyhedron::from_constraints(1, vec![Constraint::ge0(AffineExpr::from_i64(&[1], -1))]);
    let forms = [("unbounded".to_string(), form)];
    assert_eq!(check_forms("probe", &forms, &system, 1, &params), 0);
}
