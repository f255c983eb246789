//! Order statistics of small samples.

/// The median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The Harrell–Davis estimate of quantile `q` (in `(0, 1)`) of a
/// non-empty sample: a weighted mean of all order statistics, the `i`-th
/// weighted by the Beta(`(n+1)q`, `(n+1)(1-q)`) mass on `[(i-1)/n, i/n]`.
///
/// Unlike a nearest-rank percentile it does not jump when two values
/// near the quantile trade places, which matters in a sparse tail: a
/// 100-program corpus has only a handful of programs around its p90.
pub fn harrell_davis(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let a = (n as f64 + 1.0) * q;
    let b = (n as f64 + 1.0) * (1.0 - q);
    let ln_norm = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    let density = |t: f64| (ln_norm + (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()).exp();
    // Midpoint rule, STEPS points per order statistic.
    const STEPS: usize = 200;
    let h = 1.0 / (n * STEPS) as f64;
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in s.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|j| density(((i * STEPS + j) as f64 + 0.5) * h) * h)
            .sum();
        sum += w * x;
        total += w;
    }
    sum / total
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = C[0] + (1..9).map(|k| C[k] / (x + k as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for (x, f) in [(1.0, 1.0), (2.0, 1.0), (5.0, 24.0), (11.0, 3_628_800.0)] {
            assert!((ln_gamma(x) - f64::ln(f)).abs() < 1e-9, "{x}");
        }
    }

    #[test]
    fn harrell_davis_is_a_quantile() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((harrell_davis(&xs, 0.5) - 51.0).abs() < 1e-6);
        let p90 = harrell_davis(&xs, 0.9);
        assert!((p90 - 91.0).abs() < 0.5, "{p90}");
        assert_eq!(harrell_davis(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
