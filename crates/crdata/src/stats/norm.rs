//! Normalization: the pre-processing applied to raw probe intensities
//! before testing (RMA-style background correction, quantile
//! normalization, log₂ transform).

use crate::matrix::LabelledMatrix;

use super::describe::median;
use super::order::ascending_order;

/// log₂-transform all values (values are clamped to ≥ 1 first, as raw
/// intensities are positive).
pub fn log2_transform(m: &mut LabelledMatrix) {
    log2_values(&mut m.values);
}

/// [`log2_transform`] on a matrix's values.
pub(crate) fn log2_values(values: &mut [f64]) {
    for v in values {
        *v = v.max(1.0).log2();
    }
}

/// Simple RMA-style background correction: subtract a per-column
/// background (the 2nd percentile) and clamp at a small positive floor.
pub fn background_correct(m: &mut LabelledMatrix) {
    let ncols = m.ncols();
    background_correct_values(&mut m.values, ncols);
}

/// [`background_correct`] on the row-major values of a matrix with
/// `ncols` columns.
fn background_correct_values(values: &mut [f64], ncols: usize) {
    for c in 0..ncols {
        let col: Vec<f64> = values.iter().skip(c).step_by(ncols).copied().collect();
        let bg = super::describe::quantile(&col, 0.02).unwrap_or(0.0);
        for v in values.iter_mut().skip(c).step_by(ncols) {
            *v = (*v - bg).max(1.0);
        }
    }
}

/// Quantile normalization: force every column to share the same empirical
/// distribution (the mean of the per-rank values), the standard Affymetrix
/// between-array normalization. Panics on NaN.
///
/// Each column is ranked by [`ascending_order`] (ties in row order), and
/// the rank means are summed column by column, so every sum adds the same
/// values in the same order whatever ranks the columns.
pub fn quantile_normalize(m: &mut LabelledMatrix) {
    let ncols = m.ncols();
    quantile_normalize_values(&mut m.values, ncols);
}

/// [`quantile_normalize`] on the row-major values of a matrix with
/// `ncols` columns.
fn quantile_normalize_values(values: &mut [f64], ncols: usize) {
    if ncols < 2 || values.is_empty() {
        return;
    }
    let nrows = values.len() / ncols;
    // Rank each column.
    let orders: Vec<Vec<usize>> = (0..ncols)
        .map(|c| {
            ascending_order(values.iter().skip(c).step_by(ncols).copied()).expect("finite values")
        })
        .collect();
    // Mean of each rank across columns.
    let mut rank_means = vec![0.0; nrows];
    for (c, order) in orders.iter().enumerate() {
        for (rank, &row) in order.iter().enumerate() {
            rank_means[rank] += values[row * ncols + c];
        }
    }
    for v in &mut rank_means {
        *v /= ncols as f64;
    }
    // Assign rank means back.
    for (c, order) in orders.iter().enumerate() {
        for (rank, &row) in order.iter().enumerate() {
            values[row * ncols + c] = rank_means[rank];
        }
    }
}

/// Per-row z-score normalization (gene-wise standardization for
/// heatmaps).
pub fn zscore_rows(m: &mut LabelledMatrix) {
    let ncols = m.ncols();
    for r in 0..m.nrows() {
        let row: Vec<f64> = m.row(r).to_vec();
        let mean = super::describe::mean(&row);
        let sd = super::describe::std_dev(&row).unwrap_or(0.0);
        for c in 0..ncols {
            let z = if sd > 0.0 {
                (m.get(r, c) - mean) / sd
            } else {
                0.0
            };
            m.set(r, c, z);
        }
    }
}

/// Median-center each column (a light between-array normalization).
pub fn median_center_cols(m: &mut LabelledMatrix) {
    let ncols = m.ncols();
    for c in 0..ncols {
        let col = m.col(c);
        let med = median(&col).unwrap_or(0.0);
        for r in 0..m.nrows() {
            let v = m.get(r, c) - med;
            m.set(r, c, v);
        }
    }
}

/// The full RMA-like pipeline used by `affyNormalize`: background
/// correction → quantile normalization → log₂.
pub fn rma_like(m: &mut LabelledMatrix) {
    let ncols = m.ncols();
    rma_like_values(&mut m.values, ncols);
}

/// [`rma_like`] on the row-major values of a matrix with `ncols` columns.
pub(crate) fn rma_like_values(values: &mut [f64], ncols: usize) {
    background_correct_values(values, ncols);
    quantile_normalize_values(values, ncols);
    log2_values(values);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::order::tests::reference_order;
    use cumulus_simkit::rng::RngStream;

    /// Reference: quantile normalization ranking columns by stable index
    /// sorts.
    fn reference_quantile_normalize(m: &mut LabelledMatrix) {
        let nrows = m.nrows();
        let ncols = m.ncols();
        if nrows == 0 || ncols < 2 {
            return;
        }
        let orders: Vec<Vec<usize>> = (0..ncols)
            .map(|c| reference_order(&m.col(c)).expect("finite values"))
            .collect();
        let mut rank_means = vec![0.0; nrows];
        for (c, order) in orders.iter().enumerate() {
            for (rank, &row) in order.iter().enumerate() {
                rank_means[rank] += m.get(row, c);
            }
        }
        for v in &mut rank_means {
            *v /= ncols as f64;
        }
        for (c, order) in orders.iter().enumerate() {
            for (rank, &row) in order.iter().enumerate() {
                m.set(row, c, rank_means[rank]);
            }
        }
    }

    #[test]
    fn keyed_quantile_normalization_is_bitwise_the_sorted_one() {
        for seed in 0..100 {
            let mut rng = RngStream::derive(seed, "quantile-normalize");
            let rows = rng.uniform_int(0, 80) as usize;
            let cols = rng.uniform_int(1, 6) as usize;
            // Few distinct values, so most cells tie with another.
            let mut m = matrix(rows, cols, |_, _| match rng.uniform_int(0, 7) {
                0 => 0.0,
                1 => -0.0,
                k => (k as f64 - 4.0) * 1.5 + rng.uniform_int(0, 2) as f64 * 0.1,
            });
            let mut want = m.clone();
            quantile_normalize(&mut m);
            reference_quantile_normalize(&mut want);
            let bits =
                |m: &LabelledMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&m), bits(&want), "seed {seed}");
        }
    }

    #[test]
    fn column_background_correction_matches_cellwise() {
        let mut rng = RngStream::derive(3, "background");
        let mut m = matrix(257, 5, |_, _| rng.normal(200.0, 80.0).round());
        let mut want = m.clone();
        background_correct(&mut m);
        for c in 0..want.ncols() {
            let bg = crate::stats::describe::quantile(&want.col(c), 0.02).unwrap();
            for r in 0..want.nrows() {
                let v = (want.get(r, c) - bg).max(1.0);
                want.set(r, c, v);
            }
        }
        assert_eq!(m, want);
    }

    fn matrix(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> LabelledMatrix {
        let row_names = (0..rows).map(|r| format!("g{r}")).collect();
        let col_names = (0..cols).map(|c| format!("s_{c}")).collect();
        let mut values = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                values.push(f(r, c));
            }
        }
        LabelledMatrix::new(row_names, col_names, values)
    }

    #[test]
    fn quantile_normalization_equalizes_distributions() {
        // Column 1 is a scaled/shifted version of column 0.
        let mut m = matrix(50, 3, |r, c| {
            (r as f64 + 1.0) * (c as f64 + 1.0) + c as f64 * 10.0
        });
        quantile_normalize(&mut m);
        // After normalization all columns have identical sorted values.
        let mut c0 = m.col(0);
        c0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for c in 1..3 {
            let mut cc = m.col(c);
            cc.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (a, b) in c0.iter().zip(&cc) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn quantile_normalization_preserves_within_column_order() {
        let mut m = matrix(20, 2, |r, c| ((r * 7 + 3) % 20) as f64 + c as f64);
        let before = m.col(0);
        quantile_normalize(&mut m);
        let after = m.col(0);
        // Ranks preserved.
        for i in 0..before.len() {
            for j in 0..before.len() {
                if before[i] < before[j] {
                    assert!(after[i] <= after[j]);
                }
            }
        }
    }

    #[test]
    fn log2_handles_small_values() {
        let mut m = matrix(2, 2, |r, c| if r == 0 && c == 0 { 0.25 } else { 8.0 });
        log2_transform(&mut m);
        assert_eq!(m.get(0, 0), 0.0, "clamped to 1 before log");
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn background_correction_floors_at_one() {
        let mut m = matrix(100, 2, |r, _| r as f64);
        background_correct(&mut m);
        for &v in &m.values {
            assert!(v >= 1.0);
        }
    }

    #[test]
    fn zscore_rows_standardizes() {
        let mut m = matrix(3, 4, |r, c| (r * 10 + c * 2) as f64);
        zscore_rows(&mut m);
        for r in 0..3 {
            let row: Vec<f64> = m.row(r).to_vec();
            assert!(super::super::describe::mean(&row).abs() < 1e-12);
            assert!((super::super::describe::std_dev(&row).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zscore_constant_row_is_zero() {
        let mut m = matrix(1, 3, |_, _| 5.0);
        zscore_rows(&mut m);
        assert_eq!(m.values, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn median_centering_zeroes_medians() {
        let mut m = matrix(5, 2, |r, c| r as f64 + c as f64 * 100.0);
        median_center_cols(&mut m);
        for c in 0..2 {
            let col = m.col(c);
            assert!(median(&col).unwrap().abs() < 1e-12);
        }
    }

    #[test]
    fn rma_pipeline_runs() {
        let mut m = matrix(100, 4, |r, c| ((r * 13 + c * 7) % 97) as f64 * 50.0 + 20.0);
        rma_like(&mut m);
        // log2 range sanity.
        for &v in &m.values {
            assert!((0.0..=16.0).contains(&v), "v={v}");
        }
    }

    #[test]
    fn single_column_normalization_is_noop() {
        let mut m = matrix(5, 1, |r, _| r as f64);
        let before = m.clone();
        quantile_normalize(&mut m);
        assert_eq!(m, before);
    }
}
