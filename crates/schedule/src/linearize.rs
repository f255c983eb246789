//! Vertex-based constraint linearization (§4.4 of the paper).
//!
//! Given a [`BilinearForm`] `F(u, (i, N))` that must be nonnegative for
//! all `i` in a (parameterized) polytope and all `N` in the parameter
//! domain, produce finitely many affine constraints over `u`.
//!
//! For fixed unknowns `u` the form is affine in `(i, N)` jointly, so
//! Theorem 1 applies once to the joint polyhedron
//! `P = system ∩ (ℚ^{n_elim} × param_domain)`: `F(u, ·) >= 0` on `P` iff
//! it holds at every vertex of `P`, its linear part is nonnegative along
//! every ray, and null along every line (two opposite inequalities).
//! One double-description conversion of `P` yields every row; no
//! parameterized vertices or chamber decomposition are involved.

use crate::BilinearForm;
use aov_linalg::AffineExpr;
use aov_numeric::Rational;
use aov_polyhedra::{Constraint, PolyhedraError, Polyhedron};

/// Linearizes `F(u, (i, N)) >= 0  ∀ (i, N) ∈ system, N ∈ param_domain`
/// into affine constraints `g(u) >= 0`.
///
/// * `form` — over domain space `(i, N)` (`n_elim` iteration dims
///   followed by the parameter dims).
/// * `system` — polyhedron over the same space (the constraint's
///   domain `Z` or `P_j`).
/// * `param_domain` — polyhedron over the parameter dims only.
///
/// # Errors
///
/// [`PolyhedraError::UnboundedDirection`] when `system` leaves the
/// iteration dims unbounded for fixed parameters (see
/// [`eliminate_to_linear_tagged`]).
pub fn eliminate_to_linear(
    form: &BilinearForm,
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
) -> Result<Vec<AffineExpr>, PolyhedraError> {
    Ok(
        eliminate_to_linear_tagged(form, system, n_elim, param_domain)?
            .into_iter()
            .map(|(e, _)| e)
            .collect(),
    )
}

/// Where a linearized row came from — a vertex of the joint `(i, N)`
/// polyhedron (the form evaluated at a point) or a ray/line (the form's
/// linear part along a direction). The storage solvers need the
/// distinction: point rows carry the `v·Θ` coupling of the occupancy
/// vector, direction rows do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Evaluated at a concrete `(i, N)` point.
    Point,
    /// Linear part along an unbounded `(i, N)` direction.
    Direction,
}

/// As [`eliminate_to_linear`], tagging each row with its [`RowKind`].
///
/// # Errors
///
/// [`PolyhedraError::UnboundedDirection`] when the recession cone of
/// `system`'s iteration parts is not `{0}` — the iteration polytope is
/// unbounded whenever it is nonempty. The joint enumeration would
/// handle such directions exactly; the error is kept so that callers
/// see the same contract as the parameterized-vertex formulation
/// (`aov_polyhedra::param`).
pub fn eliminate_to_linear_tagged(
    form: &BilinearForm,
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
) -> Result<Vec<(AffineExpr, RowKind)>, PolyhedraError> {
    let dim = system.dim();
    assert_eq!(form.domain_dim(), dim, "form/system domain mismatch");
    assert_eq!(param_domain.dim(), dim - n_elim, "param domain dimension");
    let iteration_part = |e: &AffineExpr| {
        AffineExpr::from_parts(
            (0..n_elim).map(|k| e.coeff(k).clone()).collect(),
            Rational::zero(),
        )
    };
    let recession = Polyhedron::from_constraints(
        n_elim,
        system
            .constraints()
            .iter()
            .map(|c| with_kind(c, iteration_part(c.expr())))
            .collect(),
    );
    if !recession.generators().is_bounded() {
        return Err(PolyhedraError::UnboundedDirection);
    }

    let map: Vec<usize> = (n_elim..dim).collect();
    let mut joint = system.clone();
    for c in param_domain.constraints() {
        joint.add_constraint(with_kind(c, c.expr().embed(dim, &map)));
    }
    let gens = joint.generators();
    let mut out = Vec::new();
    if gens.is_empty() {
        return Ok(out); // nothing to require on an empty domain
    }
    for v in &gens.vertices {
        push_nontrivial(&mut out, form.at_point(v), RowKind::Point);
    }
    for r in &gens.rays {
        push_nontrivial(&mut out, form.linear_part_along(r), RowKind::Direction);
    }
    for l in &gens.lines {
        let lin = form.linear_part_along(l);
        push_nontrivial(&mut out, lin.clone(), RowKind::Direction);
        push_nontrivial(&mut out, -&lin, RowKind::Direction);
    }
    Ok(out)
}

/// A constraint of `c`'s kind on the expression `e`.
fn with_kind(c: &Constraint, e: AffineExpr) -> Constraint {
    if c.is_equality() {
        Constraint::eq0(e)
    } else {
        Constraint::ge0(e)
    }
}

fn push_nontrivial(out: &mut Vec<(AffineExpr, RowKind)>, e: AffineExpr, kind: RowKind) {
    if e.is_constant() {
        // A constant >= 0 requirement: either trivially true (drop) or a
        // contradiction (keep — the LP will report infeasibility).
        if !e.constant_term().is_negative() {
            return;
        }
    }
    if !out.iter().any(|(x, k)| *x == e && *k == kind) {
        out.push((e, kind));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_linalg::QVector;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    /// Paper §5.1.1: for uniform dependences, the iteration vector drops
    /// out and a single constraint per dependence remains.
    #[test]
    fn uniform_form_yields_single_constraint() {
        // F(u, (i, j, n, m)) = 2·u0 + u1 − 1 (no domain dependence at all):
        // mimics Θ(i,j) − Θ(i−2, j−1) − 1 with Θ = a·i + b·j.
        let form = BilinearForm::new(
            vec![
                AffineExpr::constant(4, 2.into()),
                AffineExpr::constant(4, 1.into()),
            ],
            AffineExpr::constant(4, (-1).into()),
        );
        // Domain: rectangle 1<=i<=n, 1<=j<=m; params n,m >= 1.
        let system = Polyhedron::from_constraints(
            4,
            vec![
                ge(&[1, 0, 0, 0], -1),
                ge(&[-1, 0, 1, 0], 0),
                ge(&[0, 1, 0, 0], -1),
                ge(&[0, -1, 0, 1], 0),
            ],
        );
        let params = Polyhedron::from_constraints(2, vec![ge(&[1, 0], -1), ge(&[0, 1], -1)]);
        let cs = eliminate_to_linear(&form, &system, 2, &params).unwrap();
        // All vertices and rays give the same constraint 2u0 + u1 - 1 >= 0.
        assert_eq!(cs, vec![AffineExpr::from_i64(&[2, 1], -1)]);
    }

    /// When coefficients genuinely depend on (i, N), distinct constraints
    /// appear for distinct vertices, and parameter rays add linear-part
    /// constraints (§5.2's 24-constraint expansion, in miniature).
    #[test]
    fn vertex_and_ray_constraints() {
        // F(u, (i, n)) = i·u0 − n: requires i·u0 >= n on 0 <= i <= n,
        // n >= 1 (unbounded).
        let form = BilinearForm::new(
            vec![AffineExpr::from_i64(&[1, 0], 0)],
            AffineExpr::from_i64(&[0, -1], 0),
        );
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[-1, 1], 0)]);
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        let cs = eliminate_to_linear(&form, &system, 1, &params).unwrap();
        // Vertices i=0 and i=n; param vertex n=1 and ray n→∞:
        //   i=0: −n >= 0 at n=1 → constant −1 (kept as contradiction);
        //        ray: −1 >= 0 → constant (kept as contradiction).
        // Infeasibility must be visible in the constraint set: some
        // constraint is constant-negative.
        assert!(
            cs.iter()
                .any(|c| c.is_constant() && c.constant_term().is_negative()),
            "expected an infeasible constant constraint, got {cs:?}"
        );
        // And the i=n vertex yields n-dependent rows like u0 − 1 >= 0
        // (vertex n=1) plus ray row u0 − ... — check u0-involving row
        // exists.
        assert!(cs.iter().any(|c| !c.coeff(0).is_zero()));
    }

    /// The constraint domain `Z` can be empty (paper Example 3): no
    /// constraints are produced.
    #[test]
    fn empty_system_produces_nothing() {
        let form = BilinearForm::new(vec![AffineExpr::from_i64(&[1, 0], 0)], AffineExpr::zero(2));
        let system = Polyhedron::from_constraints(
            2,
            vec![ge(&[1, 0], -2), ge(&[-1, 0], 1)], // 2 <= i <= 1: empty
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        let cs = eliminate_to_linear(&form, &system, 1, &params).unwrap();
        assert!(cs.is_empty());
    }

    /// Correctness spot check: every produced constraint is implied by
    /// the original quantified statement, and conversely the produced
    /// set forces nonnegativity at sampled domain points.
    #[test]
    fn linearization_sound_on_samples() {
        // F(u, (i, n)) = (n − i)·u0 + i·u1 − n over 0<=i<=n, 1<=n<=6.
        let form = BilinearForm::new(
            vec![
                AffineExpr::from_i64(&[-1, 1], 0),
                AffineExpr::from_i64(&[1, 0], 0),
            ],
            AffineExpr::from_i64(&[0, -1], 0),
        );
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[-1, 1], 0)]);
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1), ge(&[-1], 6)]);
        let cs = eliminate_to_linear(&form, &system, 1, &params).unwrap();
        // For a grid of u values: u satisfies all linearized constraints
        // ⇔ F(u, ·) >= 0 on all integer domain points.
        for u0 in -2i64..=3 {
            for u1 in -2i64..=3 {
                let u = QVector::from_i64(&[u0, u1]);
                let lin_ok = cs.iter().all(|c| !c.eval(&u).is_negative());
                let mut true_ok = true;
                for n in 1i64..=6 {
                    for i in 0..=n {
                        let x = QVector::from_i64(&[i, n]);
                        if form.eval(&u, &x).is_negative() {
                            true_ok = false;
                        }
                    }
                }
                assert_eq!(lin_ok, true_ok, "u = ({u0}, {u1})");
            }
        }
    }

    /// An iteration dimension without an upper bound is rejected, as
    /// the parameterized-vertex formulation rejects it — even where the
    /// joint polyhedron itself has no vertex to offer.
    #[test]
    fn unbounded_iteration_dim_is_rejected() {
        let form = BilinearForm::new(vec![AffineExpr::from_i64(&[1, 0], 0)], AffineExpr::zero(2));
        // i >= 0 with no upper bound; 1 <= n.
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0)]);
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        assert_eq!(
            eliminate_to_linear_tagged(&form, &system, 1, &params),
            Err(PolyhedraError::UnboundedDirection)
        );
        // A lower bound that grows with n does not bound i either.
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, -1], 0)]);
        assert_eq!(
            eliminate_to_linear(&form, &system, 1, &params),
            Err(PolyhedraError::UnboundedDirection)
        );
    }

    /// A parameter line (an unconstrained parameter that the system
    /// couples to `i`) becomes two opposite direction rows.
    #[test]
    fn lines_give_opposite_direction_rows() {
        // F(u, (i, n)) = n·u0 over i == n, n free.
        let form = BilinearForm::new(vec![AffineExpr::from_i64(&[0, 1], 0)], AffineExpr::zero(2));
        let system = Polyhedron::from_constraints(
            2,
            vec![Constraint::eq0(AffineExpr::from_i64(&[1, -1], 0))],
        );
        let rows = eliminate_to_linear_tagged(&form, &system, 1, &Polyhedron::universe(1)).unwrap();
        let dirs: Vec<&AffineExpr> = rows
            .iter()
            .filter(|(_, k)| *k == RowKind::Direction)
            .map(|(e, _)| e)
            .collect();
        assert_eq!(dirs.len(), 2, "{rows:?}");
        assert_eq!(dirs[0], &-dirs[1]);
        assert!(!dirs[0].coeff(0).is_zero());
    }
}
