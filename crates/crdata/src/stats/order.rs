//! Ascending order of `f64` values by integer key.
//!
//! [`ascending_order`] gives the order of a stable index sort by
//! `partial_cmp` without a comparator: it sorts packed `u128` keys
//! `(order key of v) << 64 | index` with an unstable integer sort. The key
//! is monotone in `v`, `-0.0` and `0.0` share one key (they compare
//! equal), and the index in the low half breaks ties in input order, as
//! the stable sort does.

/// A `u64` whose unsigned order is the numeric order of `v` (NaN aside).
/// `-0.0` is folded onto `0.0` first, so the two zeros tie.
fn order_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Indices of `values` in ascending order, ties in index order: the order
/// a stable sort by `partial_cmp` gives. `None` if a value is NaN, which
/// has no place in that order.
pub fn ascending_order(values: impl IntoIterator<Item = f64>) -> Option<Vec<usize>> {
    let mut keys = Vec::new();
    for (i, v) in values.into_iter().enumerate() {
        if v.is_nan() {
            return None;
        }
        keys.push(u128::from(order_key(v)) << 64 | i as u128);
    }
    keys.sort_unstable();
    Some(keys.into_iter().map(|k| k as u64 as usize).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cumulus_simkit::rng::RngStream;

    /// Reference: a stable index sort by `partial_cmp`.
    pub(crate) fn reference_order(values: &[f64]) -> Option<Vec<usize>> {
        if values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("not NaN"));
        Some(idx)
    }

    /// Seeded values with many duplicates, both zeros and infinities.
    pub(crate) fn tricky_values(rng: &mut RngStream, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.uniform_int(0, 9) {
                0 => 0.0,
                1 => -0.0,
                2 => (rng.normal(0.0, 3.0) * 2.0).round() / 2.0,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => f64::MIN_POSITIVE / 4.0,
                6 => -f64::MIN_POSITIVE / 4.0,
                _ => rng.normal(0.0, 1e3),
            })
            .collect()
    }

    #[test]
    fn keys_order_like_partial_cmp() {
        let mut rng = RngStream::derive(17, "order-keys");
        let xs = tricky_values(&mut rng, 400);
        for &a in &xs {
            for &b in &xs[..40] {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn ascending_order_equals_the_stable_sort() {
        for seed in 0..200 {
            let mut rng = RngStream::derive(seed, "ascending-order");
            let n = rng.uniform_int(0, 300) as usize;
            let xs = tricky_values(&mut rng, n);
            assert_eq!(
                ascending_order(xs.iter().copied()),
                reference_order(&xs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn nan_has_no_order() {
        assert_eq!(ascending_order([1.0, f64::NAN, 0.0]), None);
        assert_eq!(ascending_order([]), Some(Vec::new()));
    }
}
