//! Ascending order of `f64` values by integer key.
//!
//! [`ascending_order`] gives the order of a stable index sort by
//! `partial_cmp` without a comparator. Each value gets an order key that
//! is monotone in `v`, with `-0.0` and `0.0` sharing one key (they compare
//! equal), and the index breaks ties in input order, as the stable sort
//! does. Key and index share one `u64`: the index takes the low bits the
//! input length needs, the key's high bits the rest, and one unstable
//! integer sort orders them. Entries whose keys differ only in the bits
//! the index displaced (values a few ULPs apart) are put back in key
//! order afterwards.

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
    let values = values.into_iter();
    let mut keys = Vec::with_capacity(values.size_hint().0);
    for v in values {
        if v.is_nan() {
            return None;
        }
        keys.push(order_key(v));
    }
    let n = keys.len();
    // Low bits for indices `0..n`; the key keeps the bits above them.
    let index_bits = u64::BITS - (n.max(1) as u64 - 1).leading_zeros();
    let index_mask = u64::MAX.checked_shr(u64::BITS - index_bits).unwrap_or(0);
    let mut packed: Vec<u64> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| k & !index_mask | i as u64)
        .collect();
    packed.sort_unstable();
    // A run that shares the high key bits is in index order; that is the
    // order only if its full keys are equal too.
    let index = |p: u64| (p & index_mask) as usize;
    let mut start = 0;
    for end in 1..=n {
        if end < n && (packed[end] ^ packed[end - 1]) & !index_mask == 0 {
            continue;
        }
        let run = &mut packed[start..end];
        if run.len() > 1 && run.iter().any(|&p| keys[index(p)] != keys[index(run[0])]) {
            run.sort_unstable_by_key(|&p| (keys[index(p)], index(p)));
        }
        start = end;
    }
    Some(packed.into_iter().map(index).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cumulus_simkit::rng::RngStream;

    /// Reference: the packed `u128` keys `order_key << 64 | index` that
    /// [`ascending_order`] sorted before key and index shared a `u64`.
    fn reference_u128_order(values: &[f64]) -> Option<Vec<usize>> {
        let mut keys = Vec::with_capacity(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v.is_nan() {
                return None;
            }
            keys.push(u128::from(order_key(v)) << 64 | i as u128);
        }
        keys.sort_unstable();
        Some(keys.into_iter().map(|k| k as u64 as usize).collect())
    }

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
    fn values_a_few_ulps_apart_keep_their_key_order() {
        // Runs of neighbouring doubles share their high key bits, so the
        // index bits decide within a run until the run is re-sorted.
        for seed in 0..40 {
            let mut rng = RngStream::derive(seed, "ulp-runs");
            let n = rng.uniform_int(1, 5_000) as usize;
            let bases = [1.0, -1.0, 0.0, 1e-310, -3.5e7, f64::MAX / 2.0];
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    let base: f64 = *rng.choose(&bases);
                    let ulps = rng.uniform_int(0, 2 * n as u64);
                    if base == 0.0 {
                        // Both zeros and the subnormals just above them.
                        f64::from_bits(ulps / 2) * if ulps & 1 == 0 { 1.0 } else { -1.0 }
                    } else {
                        f64::from_bits(base.to_bits() + ulps)
                    }
                })
                .collect();
            let want = reference_order(&xs);
            assert_eq!(
                ascending_order(xs.iter().copied()),
                want,
                "seed {seed} n {n}"
            );
            assert_eq!(reference_u128_order(&xs), want, "seed {seed} n {n}");
        }
    }

    #[test]
    fn nan_has_no_order() {
        assert_eq!(ascending_order([1.0, f64::NAN, 0.0]), None);
        assert_eq!(ascending_order([]), Some(Vec::new()));
    }
}
