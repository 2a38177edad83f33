//! Descriptive statistics over slices.

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample variance (n−1 denominator); `None` with fewer than two values.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs);
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Quantile with linear interpolation, `q ∈ [0, 1]`. Panics on NaN.
///
/// The two order statistics around rank `q (n − 1)` are found by
/// selection rather than by sorting: the upper one by
/// `select_nth_unstable_by`, the lower one as the largest value left of
/// it. A k-th order statistic is unique, so the result is the one a full
/// sort gives, with one exception: which of several tied signed zeros a
/// stable sort puts at rank k, which is looked up in input order.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let rank = q * (xs.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite values");
    let mut buf = xs.to_vec();
    let (left, &mut at_hi, _) = buf.select_nth_unstable_by(hi, cmp);
    let at_lo = if lo == hi {
        at_hi
    } else {
        *left.iter().max_by(|a, b| cmp(a, b)).expect("lo < hi")
    };
    let (at_lo, at_hi) = (stable_zero(xs, at_lo, lo), stable_zero(xs, at_hi, hi));
    Some(at_lo * (1.0 - frac) + at_hi * frac)
}

/// The value a stable sort of `xs` puts at rank `k`, given that `v` is the
/// k-th order statistic. Only a zero needs the answer: `-0.0` and `0.0`
/// compare equal, so the stable sort keeps them in input order and rank
/// `k` holds the `(k − #negatives)`-th zero of the input.
fn stable_zero(xs: &[f64], v: f64, k: usize) -> f64 {
    if v != 0.0 {
        return v;
    }
    let negatives = xs.iter().filter(|&&x| x < 0.0).count();
    xs.iter()
        .copied()
        .filter(|&x| x == 0.0)
        .nth(k - negatives)
        .expect("rank k holds a zero")
}

/// Median.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Median absolute deviation (scaled by 1.4826 for normal consistency).
pub fn mad(xs: &[f64]) -> Option<f64> {
    let med = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&deviations).map(|m| m * 1.4826)
}

/// Pearson correlation of two equal-length slices; `None` for degenerate
/// input (length < 2 or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal lengths");
    if xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Min and max (None for empty input).
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::order::tests::tricky_values;
    use cumulus_simkit::rng::RngStream;

    /// Reference: the quantile read off a full stable sort.
    fn reference_quantile(xs: &[f64], q: f64) -> Option<f64> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let rank = q * (sorted.len() as f64 - 1.0);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    #[test]
    fn selection_quantile_is_bitwise_the_sorted_one() {
        let qs = [0.0, 0.02, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.98, 1.0];
        for seed in 0..300 {
            let mut rng = RngStream::derive(seed, "quantile-selection");
            let n = rng.uniform_int(1, 60) as usize;
            let mut xs = tricky_values(&mut rng, n);
            if seed % 3 == 0 {
                // Finite inputs too, so the interpolation is exercised
                // without infinities swamping it.
                xs.retain(|x| x.is_finite());
            }
            for &q in &qs {
                let got = quantile(&xs, q).map(f64::to_bits);
                let want = reference_quantile(&xs, q).map(f64::to_bits);
                assert_eq!(got, want, "seed {seed} q {q} xs {xs:?}");
            }
        }
    }

    #[test]
    fn tied_zeros_keep_their_input_order() {
        // A stable sort puts the zeros at ranks 1..=3 as -0, 0, -0.
        let xs = [-0.0, 5.0, 0.0, -1.0, -0.0];
        for (q, want) in [(0.25, -0.0f64), (0.5, 0.0), (0.75, -0.0)] {
            let got = quantile(&xs, q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "q {q}");
            assert_eq!(got.to_bits(), reference_quantile(&xs, q).unwrap().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "finite values")]
    fn nan_still_panics() {
        quantile(&[1.0, f64::NAN, 3.0], 0.5);
    }

    const XS: [f64; 8] = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn basic_moments() {
        assert_eq!(mean(&XS), 5.0);
        assert!((variance(&XS).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&XS).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn quantiles() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert_eq!(median(&xs), Some(25.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mad_is_robust() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let outlier = [1.0, 2.0, 3.0, 4.0, 500.0];
        let m1 = mad(&clean).unwrap();
        let m2 = mad(&outlier).unwrap();
        // MAD barely moves; SD explodes.
        assert!((m1 - m2).abs() / m1 < 0.5);
        assert!(std_dev(&outlier).unwrap() > 10.0 * std_dev(&clean).unwrap());
    }

    #[test]
    fn pearson_reference() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 6.0, 8.0, 10.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        let flat = [3.0; 5];
        assert_eq!(pearson(&xs, &flat), None);
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&XS), Some((2.0, 9.0)));
        assert_eq!(min_max(&[]), None);
    }
}
