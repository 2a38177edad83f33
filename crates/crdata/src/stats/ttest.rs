//! t-tests: the statistical engine behind `affyDifferentialExpression.R`
//! ("conducts two-group differential expression on Affymetrix CEL files").

use super::describe::{mean, variance_about};
use super::special::{t_two_sided_p, t_two_sided_p_many};

/// A test result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom (Welch–Satterthwaite for the unequal-variance
    /// test).
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
    /// Mean difference (group1 − group2).
    pub mean_diff: f64,
}

/// Welch's unequal-variance two-sample t-test.
///
/// Returns `None` when either group has fewer than two observations,
/// both variances are zero, or the Welch–Satterthwaite degrees of
/// freedom are not a positive finite number (variances so small that
/// their squares underflow to zero).
pub fn welch_t_test(group1: &[f64], group2: &[f64]) -> Option<TTestResult> {
    let mut r = welch_statistic(group1, group2)?;
    r.p = t_two_sided_p(r.t, r.df);
    Some(r)
}

/// [`welch_t_test`] on many pairs of groups: element `i` is bit for bit
/// `welch_t_test` of pair `i`. The p-values of several pairs are
/// evaluated side by side.
pub fn welch_t_tests<'a>(
    pairs: impl IntoIterator<Item = (&'a [f64], &'a [f64])>,
) -> Vec<Option<TTestResult>> {
    let pairs = pairs.into_iter();
    let mut results = Vec::with_capacity(pairs.size_hint().0);
    let mut t = Vec::with_capacity(results.capacity());
    let mut df = Vec::with_capacity(results.capacity());
    for (g1, g2) in pairs {
        let r = welch_statistic(g1, g2);
        if let Some(r) = r {
            t.push(r.t);
            df.push(r.df);
        }
        results.push(r);
    }
    for (r, p) in results
        .iter_mut()
        .flatten()
        .zip(t_two_sided_p_many(&t, &df))
    {
        r.p = p;
    }
    results
}

/// Welch's t, degrees of freedom and mean difference, with `p` left NaN.
#[inline]
fn welch_statistic(group1: &[f64], group2: &[f64]) -> Option<TTestResult> {
    if group1.len() < 2 || group2.len() < 2 {
        return None;
    }
    let m1 = mean(group1);
    let m2 = mean(group2);
    let v1 = variance_about(group1, m1)?;
    let v2 = variance_about(group2, m2)?;
    let n1 = group1.len() as f64;
    let n2 = group2.len() as f64;
    let se2 = v1 / n1 + v2 / n2;
    if se2 == 0.0 {
        return None;
    }
    let t = (m1 - m2) / se2.sqrt();
    let df = se2 * se2 / ((v1 / n1).powi(2) / (n1 - 1.0) + (v2 / n2).powi(2) / (n2 - 1.0));
    if !(df.is_finite() && df > 0.0) {
        return None;
    }
    Some(TTestResult {
        t,
        df,
        p: f64::NAN,
        mean_diff: m1 - m2,
    })
}

/// Pooled-variance (Student's) two-sample t-test.
pub fn pooled_t_test(group1: &[f64], group2: &[f64]) -> Option<TTestResult> {
    if group1.len() < 2 || group2.len() < 2 {
        return None;
    }
    let m1 = mean(group1);
    let m2 = mean(group2);
    let v1 = variance_about(group1, m1)?;
    let v2 = variance_about(group2, m2)?;
    let n1 = group1.len() as f64;
    let n2 = group2.len() as f64;
    let df = n1 + n2 - 2.0;
    let sp2 = ((n1 - 1.0) * v1 + (n2 - 1.0) * v2) / df;
    let se2 = sp2 * (1.0 / n1 + 1.0 / n2);
    if se2 == 0.0 {
        return None;
    }
    let t = (m1 - m2) / se2.sqrt();
    Some(TTestResult {
        t,
        df,
        p: t_two_sided_p(t, df),
        mean_diff: m1 - m2,
    })
}

/// Paired t-test on matched observations.
pub fn paired_t_test(before: &[f64], after: &[f64]) -> Option<TTestResult> {
    assert_eq!(before.len(), after.len(), "paired test needs matched data");
    if before.len() < 2 {
        return None;
    }
    let diffs: Vec<f64> = before.iter().zip(after).map(|(a, b)| a - b).collect();
    let md = mean(&diffs);
    let vd = variance_about(&diffs, md)?;
    if vd == 0.0 {
        return None;
    }
    let n = diffs.len() as f64;
    let t = md / (vd / n).sqrt();
    let df = n - 1.0;
    Some(TTestResult {
        t,
        df,
        p: t_two_sided_p(t, df),
        mean_diff: md,
    })
}

/// One-sample t-test against a hypothesized mean.
pub fn one_sample_t_test(xs: &[f64], mu0: f64) -> Option<TTestResult> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs);
    let v = variance_about(xs, m)?;
    if v == 0.0 {
        return None;
    }
    let n = xs.len() as f64;
    let t = (m - mu0) / (v / n).sqrt();
    let df = n - 1.0;
    Some(TTestResult {
        t,
        df,
        p: t_two_sided_p(t, df),
        mean_diff: m - mu0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::special::tests::reference_t_two_sided_p;
    use cumulus_simkit::rng::RngStream;

    /// Reference: Welch's test as first written, with `variance`
    /// recomputing each group's mean and the reference p-value.
    fn reference_welch_t_test(group1: &[f64], group2: &[f64]) -> Option<TTestResult> {
        fn mean(xs: &[f64]) -> f64 {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
        fn variance(xs: &[f64]) -> Option<f64> {
            if xs.len() < 2 {
                return None;
            }
            let m = mean(xs);
            Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0))
        }
        if group1.len() < 2 || group2.len() < 2 {
            return None;
        }
        let m1 = mean(group1);
        let m2 = mean(group2);
        let v1 = variance(group1)?;
        let v2 = variance(group2)?;
        let n1 = group1.len() as f64;
        let n2 = group2.len() as f64;
        let se2 = v1 / n1 + v2 / n2;
        if se2 == 0.0 {
            return None;
        }
        let t = (m1 - m2) / se2.sqrt();
        let df = se2 * se2 / ((v1 / n1).powi(2) / (n1 - 1.0) + (v2 / n2).powi(2) / (n2 - 1.0));
        Some(TTestResult {
            t,
            df,
            p: reference_t_two_sided_p(t, df),
            mean_diff: m1 - m2,
        })
    }

    fn bits(r: Option<TTestResult>) -> Option<[u64; 4]> {
        r.map(|r| [r.t, r.df, r.p, r.mean_diff].map(f64::to_bits))
    }

    /// One seeded group: mostly two log2 intensities (the four-CEL shape),
    /// sometimes empty, single, constant, nearly constant or wider.
    fn group(rng: &mut RngStream) -> Vec<f64> {
        let n = match rng.uniform_int(0, 9) {
            0 => rng.uniform_int(0, 1) as usize,
            1 | 2 => rng.uniform_int(3, 6) as usize,
            _ => 2,
        };
        let centre = rng.normal(7.0, 1.5);
        match rng.uniform_int(0, 7) {
            0 => vec![centre; n],
            1 => (0..n)
                .map(|i| f64::from_bits(centre.to_bits() + i as u64))
                .collect(),
            2 => (0..n).map(|_| rng.normal(0.0, 1e6)).collect(),
            3 => (0..n)
                .map(|_| if rng.chance(0.5) { 0.0 } else { -0.0 })
                .collect(),
            _ => (0..n).map(|_| rng.normal(centre, 0.25)).collect(),
        }
    }

    #[test]
    fn welch_is_bitwise_the_reference() {
        let mut nones = 0;
        for seed in 0..4_000 {
            let mut rng = RngStream::derive(seed, "welch-differential");
            let g1 = group(&mut rng);
            let g2 = if rng.chance(0.1) {
                g1.clone()
            } else {
                group(&mut rng)
            };
            let want = reference_welch_t_test(&g2, &g1);
            nones += usize::from(want.is_none());
            assert_eq!(
                bits(welch_t_test(&g2, &g1)),
                bits(want),
                "seed {seed}: {g2:?} vs {g1:?}"
            );
        }
        assert!(nones > 200, "the cases reach the None rows ({nones})");
    }

    #[test]
    fn batched_welch_is_bitwise_the_reference_at_every_length() {
        let mut rng = RngStream::derive(11, "welch-batches");
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..600)
            .map(|_| (group(&mut rng), group(&mut rng)))
            .collect();
        for len in (0..=13).chain([255, 600]) {
            let got = welch_t_tests(pairs[..len].iter().map(|(a, b)| (&a[..], &b[..])));
            assert_eq!(got.len(), len);
            for (i, (g1, g2)) in pairs[..len].iter().enumerate() {
                assert_eq!(
                    bits(got[i]),
                    bits(reference_welch_t_test(g1, g2)),
                    "len {len} pair {i}: {g1:?} vs {g2:?}"
                );
            }
        }
    }

    #[test]
    fn welch_reference_example() {
        // Classic Welch example (unequal variances).
        let a = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let b = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5,
            25.9,
        ];
        let r = welch_t_test(&a, &b).unwrap();
        // R: t.test(a, b) gives t = -2.9232, df = 27.951, p = 0.006794.
        assert!((r.t + 2.9232).abs() < 0.001, "t={}", r.t);
        assert!((r.df - 27.951).abs() < 0.01, "df={}", r.df);
        assert!((r.p - 0.006794).abs() < 0.0002, "p={}", r.p);
    }

    #[test]
    fn pooled_reference_example() {
        let a = [30.02, 29.99, 30.11, 29.97, 30.01, 29.99];
        let b = [29.89, 29.93, 29.72, 29.98, 30.02, 29.98];
        let r = pooled_t_test(&a, &b).unwrap();
        // R: t = 1.959, df = 10, p = 0.07857 (two-sided, var.equal=TRUE).
        assert!((r.t - 1.959).abs() < 0.01, "t={}", r.t);
        assert_eq!(r.df, 10.0);
        assert!((r.p - 0.0786).abs() < 0.002, "p={}", r.p);
    }

    #[test]
    fn paired_detects_shift() {
        let before = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0];
        let after: Vec<f64> = before.iter().map(|x| x + 5.0 + 0.1 * (x - 100.0)).collect();
        let r = paired_t_test(&before, &after).unwrap();
        assert!(r.p < 0.001, "clear shift: p={}", r.p);
        assert!(r.mean_diff < 0.0, "after is larger");
    }

    #[test]
    fn one_sample_against_true_mean_is_insignificant() {
        let xs = [4.9, 5.1, 5.0, 4.8, 5.2, 5.0, 5.05, 4.95];
        let r = one_sample_t_test(&xs, 5.0).unwrap();
        assert!(r.p > 0.5, "p={}", r.p);
        let r2 = one_sample_t_test(&xs, 4.0).unwrap();
        assert!(r2.p < 1e-6);
    }

    #[test]
    fn underflowing_welch_df_is_none_not_a_panic() {
        // Both (v/n)² terms underflow to zero: df would be 0/0.
        let (tiny1, tiny2) = ([1e-160, 2e-160], [3e-160, 5e-160]);
        assert_eq!(welch_t_test(&tiny1, &tiny2), None);
        let pairs = [(&tiny1[..], &tiny2[..]), (&[1.0, 2.0][..], &[3.0, 5.0][..])];
        let batched = welch_t_tests(pairs);
        assert_eq!(batched[0], None);
        assert_eq!(batched[1], welch_t_test(&[1.0, 2.0], &[3.0, 5.0]));
        assert!(pooled_t_test(&tiny1, &tiny2).is_some());
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(
            welch_t_test(&[1.0, 1.0], &[2.0, 2.0]).is_none(),
            "zero variance"
        );
        assert!(pooled_t_test(&[], &[]).is_none());
        assert!(
            paired_t_test(&[1.0, 2.0], &[1.0, 2.0]).is_none(),
            "zero diffs"
        );
        assert!(one_sample_t_test(&[5.0, 5.0], 5.0).is_none());
    }

    #[test]
    fn symmetric_groups_give_symmetric_t() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let ab = welch_t_test(&a, &b).unwrap();
        let ba = welch_t_test(&b, &a).unwrap();
        assert!((ab.t + ba.t).abs() < 1e-12);
        assert!((ab.p - ba.p).abs() < 1e-12);
    }
}
