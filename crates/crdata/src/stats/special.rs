//! Special functions: log-gamma, incomplete beta, and the distribution
//! CDFs the statistical tools need (normal, Student's t, chi-square, F).
//!
//! Implementations follow the classic Numerical-Recipes formulations
//! (Lanczos log-gamma, continued-fraction incomplete beta, series/CF
//! incomplete gamma), accurate to ~1e-10 over the ranges used here.

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEF: [f64; 9] = [
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
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln Γ(1/2)`, bit for bit what [`ln_gamma`]`(0.5)` returns. [`t_cdf`]
/// passes `b = 1/2` to the incomplete beta on every call, so it takes
/// this constant instead of evaluating the Lanczos sum again.
const LN_GAMMA_HALF: f64 = 0.572_364_942_924_699_5;

/// Cases [`t_two_sided_p_many`] evaluates side by side.
const LANES: usize = 4;

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction (Lentz's method).
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "incomplete_beta requires a,b > 0");
    incomplete_beta_lanes([a], [b], [ln_gamma(b)], [x])[0]
}

/// `I_x(a, b)` of `N` independent cases, given `ln Γ(b)` of each. Lane
/// `l` is bit for bit the one-lane evaluation of `(a[l], b[l], x[l])`.
fn incomplete_beta_lanes<const N: usize>(
    a: [f64; N],
    b: [f64; N],
    ln_gamma_b: [f64; N],
    x: [f64; N],
) -> [f64; N] {
    let mut out = [0.0; N];
    let mut front = [0.0; N];
    let mut left = [true; N];
    let mut live = [false; N];
    // Continued-fraction arguments; lanes at `x <= 0` or `x >= 1` keep
    // these placeholders and are never live.
    let (mut cf_a, mut cf_b, mut cf_x) = ([1.0; N], [1.0; N], [0.0; N]);
    for l in 0..N {
        let (a, b, x) = (a[l], b[l], x[l]);
        if x <= 0.0 {
            continue;
        }
        if x >= 1.0 {
            out[l] = 1.0;
            continue;
        }
        let ln_front =
            ln_gamma(a + b) - ln_gamma(a) - ln_gamma_b[l] + a * x.ln() + b * (1.0 - x).ln();
        front[l] = ln_front.exp();
        live[l] = true;
        // Evaluate the continued fraction on whichever side converges fast
        // (Numerical Recipes' symmetric form — no recursion).
        left[l] = x < (a + 1.0) / (a + b + 2.0);
        (cf_a[l], cf_b[l], cf_x[l]) = if left[l] { (a, b, x) } else { (b, a, 1.0 - x) };
    }
    let h = beta_cf(cf_a, cf_b, cf_x, live);
    for l in 0..N {
        if live[l] {
            out[l] = if left[l] {
                front[l] * h[l] / a[l]
            } else {
                1.0 - front[l] * h[l] / b[l]
            };
        }
    }
    out
}

/// Lentz's continued fraction of `N` independent cases in lock step.
///
/// Each lane performs the scalar recurrence's operations in their scalar
/// order and stops updating after the step at which it converges (or at
/// the iteration cap, which all lanes share), so its result is bit for
/// bit the one-lane evaluation. Interleaving lanes only lets their
/// dependent divisions overlap. Lanes not `live` are never updated.
fn beta_cf<const N: usize>(a: [f64; N], b: [f64; N], x: [f64; N], mut live: [bool; N]) -> [f64; N] {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let floor = |v: f64| if v.abs() < FPMIN { FPMIN } else { v };

    let qab: [f64; N] = std::array::from_fn(|l| a[l] + b[l]);
    let qap: [f64; N] = std::array::from_fn(|l| a[l] + 1.0);
    let qam: [f64; N] = std::array::from_fn(|l| a[l] - 1.0);
    let mut c = [1.0; N];
    let mut d: [f64; N] = std::array::from_fn(|l| 1.0 / floor(1.0 - qab[l] * x[l] / qap[l]));
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let mut any_live = false;
        for l in 0..N {
            // Even step.
            let aa = m * (b[l] - m) * x[l] / ((qam[l] + m2) * (a[l] + m2));
            let d_even = 1.0 / floor(1.0 + aa * d[l]);
            let c_even = floor(1.0 + aa / c[l]);
            let h_even = h[l] * (d_even * c_even);
            // Odd step.
            let aa = -(a[l] + m) * (qab[l] + m) * x[l] / ((a[l] + m2) * (qap[l] + m2));
            let d_odd = 1.0 / floor(1.0 + aa * d_even);
            let c_odd = floor(1.0 + aa / c_even);
            let del = d_odd * c_odd;
            if live[l] {
                d[l] = d_odd;
                c[l] = c_odd;
                h[l] = h_even * del;
                // The scalar loop's exit test, negated: a NaN step keeps
                // iterating. One comparison measured faster than a second
                // `is_nan` test.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let keep = !((del - 1.0).abs() < EPS);
                live[l] = keep;
            }
            any_live |= live[l];
        }
        if !any_live {
            break;
        }
    }
    h
}

/// Regularized lower incomplete gamma `P(a, x)`.
pub fn incomplete_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "incomplete_gamma requires a > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..300 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 3e-14 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q, then P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1e300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..300 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 3e-14 {
                break;
            }
        }
        1.0 - h * (-x + a * x.ln() - ln_gamma(a)).exp()
    }
}

/// Standard normal CDF (via `erf`-style expansion of the incomplete
/// gamma).
pub fn normal_cdf(z: f64) -> f64 {
    if z == 0.0 {
        return 0.5;
    }
    let p = incomplete_gamma_p(0.5, z * z / 2.0);
    if z > 0.0 {
        0.5 + 0.5 * p
    } else {
        0.5 - 0.5 * p
    }
}

/// Student's t CDF with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    t_cdf_lanes([t], [df])[0]
}

/// Student's t CDF of `N` independent cases; lane `l` is bit for bit
/// `t_cdf(t[l], df[l])`.
fn t_cdf_lanes<const N: usize>(t: [f64; N], df: [f64; N]) -> [f64; N] {
    let mut a = [0.0; N];
    let mut x = [0.0; N];
    for l in 0..N {
        assert!(df[l] > 0.0, "t_cdf requires df > 0");
        x[l] = df[l] / (df[l] + t[l] * t[l]);
        a[l] = df[l] / 2.0;
    }
    let ib = incomplete_beta_lanes(a, [0.5; N], [LN_GAMMA_HALF; N], x);
    std::array::from_fn(|l| {
        let p = 0.5 * ib[l];
        if t[l] > 0.0 {
            1.0 - p
        } else {
            p
        }
    })
}

/// Two-sided p-value for a t statistic.
pub fn t_two_sided_p(t: f64, df: f64) -> f64 {
    t_two_sided_p_lanes([t], [df])[0]
}

fn t_two_sided_p_lanes<const N: usize>(t: [f64; N], df: [f64; N]) -> [f64; N] {
    t_cdf_lanes(t.map(f64::abs), df).map(|cdf| (2.0 * (1.0 - cdf)).clamp(0.0, 1.0))
}

/// Two-sided p-values of many `(t, df)` pairs: element `i` is bit for bit
/// `t_two_sided_p(t[i], df[i])`. The continued fractions of four pairs
/// at a time run in lock step, so their divisions overlap.
pub(crate) fn t_two_sided_p_many(t: &[f64], df: &[f64]) -> Vec<f64> {
    assert_eq!(t.len(), df.len(), "one df per t statistic");
    let mut out = Vec::with_capacity(t.len());
    for (t, df) in t.chunks(LANES).zip(df.chunks(LANES)) {
        // A short last chunk is padded with `t = 0, df = 1`, whose
        // incomplete beta needs no continued fraction.
        let (mut tl, mut dl) = ([0.0; LANES], [1.0; LANES]);
        tl[..t.len()].copy_from_slice(t);
        dl[..df.len()].copy_from_slice(df);
        out.extend_from_slice(&t_two_sided_p_lanes(tl, dl)[..t.len()]);
    }
    out
}

/// Chi-square CDF with `df` degrees of freedom.
pub fn chi_square_cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    if x <= 0.0 {
        return 0.0;
    }
    incomplete_gamma_p(df / 2.0, x / 2.0)
}

/// F-distribution CDF.
pub fn f_cdf(x: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0);
    if x <= 0.0 {
        return 0.0;
    }
    incomplete_beta(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cumulus_simkit::rng::RngStream;

    /// Reference: the scalar incomplete beta as first written, evaluating
    /// all three log-gammas on every call.
    pub(crate) fn reference_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
        assert!(a > 0.0 && b > 0.0, "incomplete_beta requires a,b > 0");
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        let ln_front =
            ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
        let front = ln_front.exp();
        if x < (a + 1.0) / (a + b + 2.0) {
            front * reference_beta_cf(a, b, x) / a
        } else {
            1.0 - front * reference_beta_cf(b, a, 1.0 - x) / b
        }
    }

    fn reference_beta_cf(a: f64, b: f64, x: f64) -> f64 {
        const MAX_ITER: usize = 300;
        const EPS: f64 = 3e-14;
        const FPMIN: f64 = 1e-300;

        let qab = a + b;
        let qap = a + 1.0;
        let qam = a - 1.0;
        let mut c = 1.0;
        let mut d = 1.0 - qab * x / qap;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        d = 1.0 / d;
        let mut h = d;
        for m in 1..=MAX_ITER {
            let m = m as f64;
            let m2 = 2.0 * m;
            let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            h *= d * c;
            let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < EPS {
                break;
            }
        }
        h
    }

    /// Reference: Student's t CDF over [`reference_incomplete_beta`].
    pub(crate) fn reference_t_cdf(t: f64, df: f64) -> f64 {
        assert!(df > 0.0, "t_cdf requires df > 0");
        let x = df / (df + t * t);
        let p = 0.5 * reference_incomplete_beta(df / 2.0, 0.5, x);
        if t > 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    /// Reference: the two-sided p-value over [`reference_t_cdf`].
    pub(crate) fn reference_t_two_sided_p(t: f64, df: f64) -> f64 {
        let tail = 1.0 - reference_t_cdf(t.abs(), df);
        (2.0 * tail).clamp(0.0, 1.0)
    }

    /// The neighbouring doubles of a positive finite `v`, one ULP away.
    fn ulp_neighbours(v: f64) -> [f64; 2] {
        [
            f64::from_bits(v.to_bits() - 1),
            f64::from_bits(v.to_bits() + 1),
        ]
    }

    /// Seeded degrees of freedom: Welch-shaped ones in (1, 2] (two
    /// samples a group), integers, and large ones.
    pub(crate) fn df_cases(rng: &mut RngStream) -> Vec<f64> {
        let mut dfs = vec![1.0, 2.0, ulp_neighbours(1.0)[1], ulp_neighbours(2.0)[0]];
        dfs.extend((0..40).map(|_| rng.uniform_range(1.0, 2.0)));
        dfs.extend((1..=40).map(f64::from));
        dfs.extend([50.0, 120.5, 1e3, 1e4, 1e6, 1e9, 1e15]);
        dfs.extend((0..10).map(|_| rng.uniform_range(2.0, 500.0)));
        dfs
    }

    /// Seeded t statistics of both signs: zeros, tiny, ordinary and huge
    /// magnitudes (up to ones whose square overflows), and NaN, whose
    /// continued fraction runs to its iteration cap.
    pub(crate) fn t_cases(rng: &mut RngStream) -> Vec<f64> {
        let mut mags = vec![
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1e-300,
            1e-150,
            1e-12,
            1e-6,
            1e6,
            1e10,
            1e150,
            1e155,
            1e300,
            f64::MAX,
            f64::NAN,
        ];
        mags.extend((0..30).map(|_| rng.normal(0.0, 4.0).abs()));
        mags.extend((0..10).map(|_| rng.uniform_range(0.0, 200.0)));
        mags.iter().flat_map(|&m| [m, -m]).collect()
    }

    #[test]
    fn t_p_values_are_bitwise_the_reference() {
        for seed in 0..4 {
            let mut rng = RngStream::derive(seed, "t-p-values");
            let dfs = df_cases(&mut rng);
            let ts = t_cases(&mut rng);
            for &df in &dfs {
                for &t in &ts {
                    let got = (t_cdf(t, df).to_bits(), t_two_sided_p(t, df).to_bits());
                    let want = (
                        reference_t_cdf(t, df).to_bits(),
                        reference_t_two_sided_p(t, df).to_bits(),
                    );
                    assert_eq!(got, want, "seed {seed} t {t:e} df {df}");
                }
            }
        }
    }

    #[test]
    fn ln_gamma_half_is_the_lanczos_value() {
        assert_eq!(LN_GAMMA_HALF.to_bits(), ln_gamma(0.5).to_bits());
    }

    #[test]
    fn batched_p_values_are_bitwise_the_reference_at_every_length() {
        for seed in 0..4 {
            let mut rng = RngStream::derive(seed, "t-p-batches");
            let dfs = df_cases(&mut rng);
            let ts = t_cases(&mut rng);
            // Every (t, df) case, shuffled so each meets varied neighbours
            // in its lane group.
            let mut cases: Vec<(f64, f64)> = dfs
                .iter()
                .flat_map(|&df| ts.iter().map(move |&t| (t, df)))
                .collect();
            rng.shuffle(&mut cases);
            // Lengths below, at and past multiples of the lane count.
            let mut lengths: Vec<usize> = (0..=3 * LANES + 1).collect();
            lengths.extend([97, 1_001, cases.len()]);
            for len in lengths {
                let (t, df): (Vec<f64>, Vec<f64>) = cases[..len].iter().copied().unzip();
                let got = t_two_sided_p_many(&t, &df);
                assert_eq!(got.len(), len);
                for (i, p) in got.iter().enumerate() {
                    assert_eq!(
                        p.to_bits(),
                        reference_t_two_sided_p(t[i], df[i]).to_bits(),
                        "seed {seed} len {len} at {i}: t {:e} df {}",
                        t[i],
                        df[i]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "t_cdf requires df > 0")]
    fn batched_p_value_of_nan_df_still_panics() {
        t_two_sided_p_many(&[1.0, 2.0, 3.0], &[1.5, f64::NAN, 2.0]);
    }

    #[test]
    fn incomplete_beta_is_bitwise_the_reference_on_both_sides_of_the_switch() {
        let mut rng = RngStream::derive(7, "incomplete-beta");
        let mut shapes: Vec<(f64, f64)> = (0..60)
            .map(|_| (rng.uniform_range(0.5, 1.0), 0.5))
            .collect();
        shapes.extend(
            (0..40).map(|_| (rng.uniform_range(0.05, 40.0), rng.uniform_range(0.05, 40.0))),
        );
        shapes.extend([(0.5, 0.5), (1.0, 0.5), (1e6, 0.5), (0.5, 1e6), (2.5, 1.5)]);
        for &(a, b) in &shapes {
            let switch = (a + 1.0) / (a + b + 2.0);
            let mut xs = vec![
                0.0,
                -0.5,
                1.0,
                1.5,
                5e-324,
                1e-300,
                1e-12,
                1.0 - 1e-12,
                ulp_neighbours(1.0)[0],
                switch,
                switch - 1e-9,
                switch + 1e-9,
            ];
            xs.extend(ulp_neighbours(switch));
            xs.extend((0..20).map(|_| rng.uniform()));
            for &x in &xs {
                assert_eq!(
                    incomplete_beta(a, b, x).to_bits(),
                    reference_incomplete_beta(a, b, x).to_bits(),
                    "a {a} b {b} x {x:e} (switch {switch})"
                );
            }
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_bounds_and_symmetry() {
        assert_eq!(incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        let a = 2.5;
        let b = 1.5;
        let x = 0.3;
        let lhs = incomplete_beta(a, b, x);
        let rhs = 1.0 - incomplete_beta(b, a, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-12);
        // I_x(1,1) = x (uniform).
        assert!((incomplete_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.959_963_985) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.959_963_985) - 0.025).abs() < 1e-6);
        assert!((normal_cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn t_cdf_reference_points() {
        // t(df=∞) → normal; t(df=1) is Cauchy: CDF(1) = 0.75.
        assert!((t_cdf(1.0, 1.0) - 0.75).abs() < 1e-9);
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
        // Critical value: t_{0.975, 10} ≈ 2.228139.
        assert!((t_cdf(2.228_139, 10.0) - 0.975).abs() < 1e-5);
        // Large df approaches the normal.
        assert!((t_cdf(1.96, 1e6) - normal_cdf(1.96)).abs() < 1e-4);
    }

    #[test]
    fn two_sided_p_behaviour() {
        assert!((t_two_sided_p(2.228_139, 10.0) - 0.05).abs() < 1e-4);
        assert!((t_two_sided_p(-2.228_139, 10.0) - 0.05).abs() < 1e-4);
        assert!((t_two_sided_p(0.0, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_reference_points() {
        // χ²(df=2) CDF(x) = 1 - e^{-x/2}.
        let x = 3.0;
        assert!((chi_square_cdf(x, 2.0) - (1.0 - (-x / 2.0f64).exp())).abs() < 1e-10);
        assert_eq!(chi_square_cdf(0.0, 4.0), 0.0);
        // 95th percentile of χ²(1) ≈ 3.841459.
        assert!((chi_square_cdf(3.841_459, 1.0) - 0.95).abs() < 1e-5);
    }

    #[test]
    fn f_cdf_reference_points() {
        // F(1, d2) relates to t²: P(F ≤ t²) = P(|T| ≤ t).
        let t = 2.228_139;
        let df = 10.0;
        let f = f_cdf(t * t, 1.0, df);
        assert!((f - 0.95).abs() < 1e-4);
        assert_eq!(f_cdf(0.0, 3.0, 4.0), 0.0);
    }

    #[test]
    fn incomplete_gamma_bounds() {
        assert_eq!(incomplete_gamma_p(1.5, 0.0), 0.0);
        assert!(incomplete_gamma_p(1.5, 100.0) > 0.999_999);
        // P(1, x) = 1 - e^{-x}.
        assert!((incomplete_gamma_p(1.0, 2.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-10);
    }
}
