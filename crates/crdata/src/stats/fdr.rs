//! Multiple-testing correction.
//!
//! The "top table of probe sets that are differentially expressed" (§V.A)
//! is ranked by adjusted p-values; Benjamini–Hochberg is the default, with
//! Bonferroni and Holm available as alternatives.

use super::order::ascending_order;

/// The available correction methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjustment {
    /// Benjamini–Hochberg false-discovery-rate control.
    BenjaminiHochberg,
    /// Bonferroni family-wise control.
    Bonferroni,
    /// Holm step-down family-wise control.
    Holm,
    /// No adjustment.
    None,
}

impl Adjustment {
    /// Parse from the R-style method name.
    pub fn parse(s: &str) -> Option<Adjustment> {
        match s.to_ascii_lowercase().as_str() {
            "bh" | "fdr" | "benjamini-hochberg" => Some(Adjustment::BenjaminiHochberg),
            "bonferroni" => Some(Adjustment::Bonferroni),
            "holm" => Some(Adjustment::Holm),
            "none" => Some(Adjustment::None),
            _ => None,
        }
    }
}

/// Adjust a vector of p-values; the result is positionally aligned with
/// the input. Holm and Benjamini–Hochberg walk the p-values in
/// [`ascending_order`] (ties in input order) and panic on a NaN p.
pub fn adjust(pvalues: &[f64], method: Adjustment) -> Vec<f64> {
    let n = pvalues.len();
    if n == 0 {
        return Vec::new();
    }
    match method {
        Adjustment::None => pvalues.to_vec(),
        Adjustment::Bonferroni => pvalues.iter().map(|p| (p * n as f64).min(1.0)).collect(),
        Adjustment::Holm => {
            let order = ascending_order(pvalues.iter().copied()).expect("finite p");
            let mut out = vec![0.0; n];
            let mut running_max: f64 = 0.0;
            for (rank, &idx) in order.iter().enumerate() {
                let factor = (n - rank) as f64;
                let adj = (pvalues[idx] * factor).min(1.0);
                running_max = running_max.max(adj);
                out[idx] = running_max;
            }
            out
        }
        Adjustment::BenjaminiHochberg => {
            let order = ascending_order(pvalues.iter().copied()).expect("finite p");
            let mut out = vec![0.0; n];
            let mut running_min = 1.0f64;
            // Walk from the largest p down, taking the cumulative minimum.
            for rank in (0..n).rev() {
                let idx = order[rank];
                let adj = pvalues[idx] * n as f64 / (rank + 1) as f64;
                running_min = running_min.min(adj).min(1.0);
                out[idx] = running_min;
            }
            out
        }
    }
}

/// Count of discoveries at level `alpha` after adjustment.
pub fn discoveries(pvalues: &[f64], method: Adjustment, alpha: f64) -> usize {
    adjust(pvalues, method)
        .into_iter()
        .filter(|p| *p <= alpha)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::order::tests::reference_order;
    use cumulus_simkit::rng::RngStream;

    /// Reference: Holm and BH walking a stable index sort.
    fn reference_adjust(pvalues: &[f64], method: Adjustment) -> Vec<f64> {
        let n = pvalues.len();
        match method {
            Adjustment::None | Adjustment::Bonferroni => adjust(pvalues, method),
            Adjustment::Holm => {
                let order = reference_order(pvalues).expect("finite p");
                let mut out = vec![0.0; n];
                let mut running_max: f64 = 0.0;
                for (rank, &idx) in order.iter().enumerate() {
                    let adj = (pvalues[idx] * (n - rank) as f64).min(1.0);
                    running_max = running_max.max(adj);
                    out[idx] = running_max;
                }
                out
            }
            Adjustment::BenjaminiHochberg => {
                let order = reference_order(pvalues).expect("finite p");
                let mut out = vec![0.0; n];
                let mut running_min = 1.0f64;
                for rank in (0..n).rev() {
                    let idx = order[rank];
                    let adj = pvalues[idx] * n as f64 / (rank + 1) as f64;
                    running_min = running_min.min(adj).min(1.0);
                    out[idx] = running_min;
                }
                out
            }
        }
    }

    #[test]
    fn keyed_adjustment_is_bitwise_the_sorted_one() {
        for seed in 0..200 {
            let mut rng = RngStream::derive(seed, "fdr-keyed");
            let n = rng.uniform_int(0, 120) as usize;
            // Coarse p-values tie often; zeros of both signs included.
            let p: Vec<f64> = (0..n)
                .map(|_| match rng.uniform_int(0, 5) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    _ => (rng.uniform() * 40.0).round() / 40.0,
                })
                .collect();
            for method in [
                Adjustment::BenjaminiHochberg,
                Adjustment::Bonferroni,
                Adjustment::Holm,
                Adjustment::None,
            ] {
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(adjust(&p, method)),
                    bits(reference_adjust(&p, method)),
                    "seed {seed} {method:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite p")]
    fn nan_p_still_panics() {
        adjust(&[0.1, f64::NAN], Adjustment::BenjaminiHochberg);
    }

    #[test]
    fn bh_matches_r_reference() {
        // R: p.adjust(c(0.01, 0.02, 0.03, 0.04, 0.05), method="BH")
        //    = 0.05 0.05 0.05 0.05 0.05
        let p = [0.01, 0.02, 0.03, 0.04, 0.05];
        let adj = adjust(&p, Adjustment::BenjaminiHochberg);
        for a in &adj {
            assert!((a - 0.05).abs() < 1e-12, "{adj:?}");
        }
        // R: p.adjust(c(0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205),
        //    method="BH") = 0.008 0.032 0.0672 0.0672 0.0672 0.08 0.08457 0.205
        let p = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205];
        let adj = adjust(&p, Adjustment::BenjaminiHochberg);
        let expect = [
            0.008,
            0.032,
            0.0672,
            0.0672,
            0.0672,
            0.08,
            0.084_571_43,
            0.205,
        ];
        for (a, e) in adj.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-6, "{adj:?}");
        }
    }

    #[test]
    fn bonferroni_multiplies_and_caps() {
        let p = [0.01, 0.3, 0.9];
        let adj = adjust(&p, Adjustment::Bonferroni);
        assert!((adj[0] - 0.03).abs() < 1e-12);
        assert!((adj[1] - 0.9).abs() < 1e-12);
        assert_eq!(adj[2], 1.0);
    }

    #[test]
    fn holm_matches_r_reference() {
        // R: p.adjust(c(0.01, 0.02, 0.03), method="holm") = 0.03 0.04 0.04
        let adj = adjust(&[0.01, 0.02, 0.03], Adjustment::Holm);
        let expect = [0.03, 0.04, 0.04];
        for (a, e) in adj.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-12, "{adj:?}");
        }
    }

    #[test]
    fn adjustment_preserves_order_and_bounds() {
        let p = [0.5, 0.001, 0.2, 0.04, 0.9];
        for method in [
            Adjustment::BenjaminiHochberg,
            Adjustment::Bonferroni,
            Adjustment::Holm,
        ] {
            let adj = adjust(&p, method);
            for (raw, a) in p.iter().zip(&adj) {
                assert!(*a >= *raw - 1e-15, "{method:?} reduced a p-value");
                assert!(*a <= 1.0);
            }
            // Adjusted ordering is consistent with raw ordering.
            let mut idx: Vec<usize> = (0..p.len()).collect();
            idx.sort_by(|&a, &b| p[a].partial_cmp(&p[b]).unwrap());
            for pair in idx.windows(2) {
                assert!(adj[pair[0]] <= adj[pair[1]] + 1e-15, "{method:?}");
            }
        }
    }

    #[test]
    fn none_is_identity_and_empty_is_empty() {
        let p = [0.1, 0.2];
        assert_eq!(adjust(&p, Adjustment::None), p.to_vec());
        assert!(adjust(&[], Adjustment::BenjaminiHochberg).is_empty());
    }

    #[test]
    fn discoveries_counts() {
        let p = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205];
        assert_eq!(discoveries(&p, Adjustment::BenjaminiHochberg, 0.05), 2);
        assert_eq!(discoveries(&p, Adjustment::None, 0.05), 5);
    }

    #[test]
    fn method_names_parse() {
        assert_eq!(Adjustment::parse("BH"), Some(Adjustment::BenjaminiHochberg));
        assert_eq!(
            Adjustment::parse("fdr"),
            Some(Adjustment::BenjaminiHochberg)
        );
        assert_eq!(Adjustment::parse("holm"), Some(Adjustment::Holm));
        assert_eq!(
            Adjustment::parse("bonferroni"),
            Some(Adjustment::Bonferroni)
        );
        assert_eq!(Adjustment::parse("none"), Some(Adjustment::None));
        assert_eq!(Adjustment::parse("magic"), None);
    }
}
