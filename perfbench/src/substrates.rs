//! Unit costs of the substrate layers: the same public calls on the same
//! fixed inputs as `crates/bench/benches/substrates.rs`, timed here so a
//! traced run reports them next to the layers they explain.

use std::hint::black_box;
use std::time::{Duration, Instant};

use aov_linalg::AffineExpr;
use aov_lp::{Cmp, Model};
use aov_numeric::{BigInt, Rational};
use aov_polyhedra::{param, Constraint, Polyhedron};

/// Median time of one call of `f`, in nanoseconds: calls are batched
/// until a batch lasts at least `BATCH`, and the median of `BATCHES`
/// batches is reported.
fn per_call_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    const BATCH: Duration = Duration::from_millis(40);
    const BATCHES: usize = 5;
    let mut n: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        if t0.elapsed() >= BATCH {
            break;
        }
        n *= 2;
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// `(metric name, value, unit)` for every substrate unit cost.
pub fn measure() -> Vec<(&'static str, f64, &'static str)> {
    // A memo hit would skip the simplex this is meant to time (turning
    // the memo off also empties it).
    aov_lp::memo::set_enabled(false);
    let mut out = Vec::new();

    let a = BigInt::from(0x1234_5678_9abc_def0i64).pow(8);
    let b = BigInt::from(0x0fed_cba9_8765_4321i64).pow(5);
    out.push((
        "numeric.bigint_mul_512bit_ns",
        per_call_ns(|| black_box(&a) * black_box(&b)),
        "ns",
    ));
    out.push((
        "numeric.bigint_divrem_512bit_ns",
        per_call_ns(|| black_box(&a).div_rem(black_box(&b))),
        "ns",
    ));

    let terms: Vec<Rational> = (1..=60).map(|k| Rational::new(1, k)).collect();
    out.push((
        "numeric.harmonic_sum_60_us",
        per_call_ns(|| terms.iter().cloned().sum::<Rational>()) / 1e3,
        "us",
    ));

    // A 12-var assignment-like LP.
    let mut m = Model::new();
    for k in 0..12 {
        m.add_nonneg_var(format!("x{k}"));
    }
    for r in 0..8 {
        let coeffs: Vec<i64> = (0..12).map(|k| ((k * 7 + r * 3) % 5) as i64 - 2).collect();
        m.constrain(AffineExpr::from_i64(&coeffs, -(r as i64 + 3)), Cmp::Le);
        m.constrain(AffineExpr::from_i64(&coeffs, 20), Cmp::Ge);
    }
    m.minimize(AffineExpr::from_i64(
        &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
        0,
    ));
    out.push((
        "lp.simplex_12v_16c_us",
        per_call_ns(|| black_box(&m).solve_lp()) / 1e3,
        "us",
    ));

    // A 4-d hypercube with two cuts: 10 constraints.
    let mut cs = Vec::new();
    for k in 0..4 {
        let mut lo = vec![0i64; 4];
        lo[k] = 1;
        cs.push(Constraint::ge0(AffineExpr::from_i64(&lo, 0)));
        let mut hi = vec![0i64; 4];
        hi[k] = -1;
        cs.push(Constraint::ge0(AffineExpr::from_i64(&hi, 3)));
    }
    cs.push(Constraint::ge0(AffineExpr::from_i64(&[-1, -1, -1, -1], 9)));
    cs.push(Constraint::ge0(AffineExpr::from_i64(&[1, -1, 1, -1], 2)));
    let p = Polyhedron::from_constraints(4, cs);
    out.push((
        "polyhedra.dd_4cube_cut_us",
        per_call_ns(|| black_box(&p).generators()) / 1e3,
        "us",
    ));
    out.push((
        "polyhedra.fm_eliminate_2_us",
        per_call_ns(|| black_box(&p).eliminate_dims(&[1, 3])) / 1e3,
        "us",
    ));

    // The paper's rectangle 1<=i<=n, 1<=j<=m over n, m >= 1.
    let system = Polyhedron::from_constraints(
        4,
        vec![
            Constraint::ge0(AffineExpr::from_i64(&[1, 0, 0, 0], -1)),
            Constraint::ge0(AffineExpr::from_i64(&[-1, 0, 1, 0], 0)),
            Constraint::ge0(AffineExpr::from_i64(&[0, 1, 0, 0], -1)),
            Constraint::ge0(AffineExpr::from_i64(&[0, -1, 0, 1], 0)),
        ],
    );
    let params = Polyhedron::from_constraints(
        2,
        vec![
            Constraint::ge0(AffineExpr::from_i64(&[1, 0], -1)),
            Constraint::ge0(AffineExpr::from_i64(&[0, 1], -1)),
        ],
    );
    out.push((
        "polyhedra.param_vertices_rect_us",
        per_call_ns(|| param::parameterized_vertices(black_box(&system), 2, &params)) / 1e3,
        "us",
    ));
    out
}
