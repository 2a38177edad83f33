//! A labelled dense matrix — the core data structure for expression
//! analysis (probes/genes × samples).

/// A row-major dense matrix with row and column labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledMatrix {
    /// Row labels (probes/genes).
    pub row_names: Vec<String>,
    /// Column labels (samples).
    pub col_names: Vec<String>,
    /// Row-major values; `values[r * ncols + c]`.
    pub values: Vec<f64>,
}

impl LabelledMatrix {
    /// Build from parts; panics when dimensions disagree.
    pub fn new(row_names: Vec<String>, col_names: Vec<String>, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            row_names.len() * col_names.len(),
            "matrix dimensions disagree with labels"
        );
        LabelledMatrix {
            row_names,
            col_names,
            values,
        }
    }

    /// A zero matrix.
    pub fn zeros(row_names: Vec<String>, col_names: Vec<String>) -> Self {
        let n = row_names.len() * col_names.len();
        LabelledMatrix {
            row_names,
            col_names,
            values: vec![0.0; n],
        }
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.row_names.len()
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        self.col_names.len()
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.nrows() && c < self.ncols());
        self.values[r * self.ncols() + c]
    }

    /// Element update.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.nrows() && c < self.ncols());
        let ncols = self.ncols();
        self.values[r * ncols + c] = v;
    }

    /// Borrow a row slice.
    pub fn row(&self, r: usize) -> &[f64] {
        let ncols = self.ncols();
        &self.values[r * ncols..(r + 1) * ncols]
    }

    /// Copy a column out.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.nrows()).map(|r| self.get(r, c)).collect()
    }

    /// Index of a column by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.col_names.iter().position(|n| n == name)
    }

    /// Index of a row by name.
    pub fn row_index(&self, name: &str) -> Option<usize> {
        self.row_names.iter().position(|n| n == name)
    }

    /// New matrix keeping only the given row indices (in the given order).
    pub fn select_rows(&self, rows: &[usize]) -> LabelledMatrix {
        let mut values = Vec::with_capacity(rows.len() * self.ncols());
        let mut row_names = Vec::with_capacity(rows.len());
        for &r in rows {
            values.extend_from_slice(self.row(r));
            row_names.push(self.row_names[r].clone());
        }
        LabelledMatrix {
            row_names,
            col_names: self.col_names.clone(),
            values,
        }
    }

    /// New matrix keeping only the given column indices.
    pub fn select_cols(&self, cols: &[usize]) -> LabelledMatrix {
        let mut values = Vec::with_capacity(self.nrows() * cols.len());
        for r in 0..self.nrows() {
            for &c in cols {
                values.push(self.get(r, c));
            }
        }
        LabelledMatrix {
            row_names: self.row_names.clone(),
            col_names: cols.iter().map(|&c| self.col_names[c].clone()).collect(),
            values,
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> LabelledMatrix {
        let mut values = Vec::with_capacity(self.values.len());
        for c in 0..self.ncols() {
            for r in 0..self.nrows() {
                values.push(self.get(r, c));
            }
        }
        LabelledMatrix {
            row_names: self.col_names.clone(),
            col_names: self.row_names.clone(),
            values,
        }
    }

    /// Apply a function element-wise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.ncols()];
        for r in 0..self.nrows() {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.get(r, c);
            }
        }
        let n = self.nrows().max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Row means.
    pub fn row_means(&self) -> Vec<f64> {
        (0..self.nrows())
            .map(|r| {
                let row = self.row(r);
                row.iter().sum::<f64>() / row.len().max(1) as f64
            })
            .collect()
    }

    /// Split column indices into groups by a prefix of the sample name up
    /// to the first `_` (the convention used by the synthetic CEL bundles:
    /// `groupA_1`, `groupB_2`, …). Returns `(group names, per-group column
    /// indices)` with groups in first-appearance order.
    pub fn groups_from_col_names(&self) -> (Vec<String>, Vec<Vec<usize>>) {
        sample_groups(&self.col_names)
    }
}

/// [`LabelledMatrix::groups_from_col_names`] over column names alone.
pub(crate) fn sample_groups(col_names: &[String]) -> (Vec<String>, Vec<Vec<usize>>) {
    let mut names: Vec<String> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (c, col) in col_names.iter().enumerate() {
        let g = col.split('_').next().unwrap_or(col).to_string();
        match names.iter().position(|n| *n == g) {
            Some(i) => groups[i].push(c),
            None => {
                names.push(g);
                groups.push(vec![c]);
            }
        }
    }
    (names, groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> LabelledMatrix {
        LabelledMatrix::new(
            vec!["g1".to_string(), "g2".to_string()],
            vec!["a_1".to_string(), "a_2".to_string(), "b_1".to_string()],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
    }

    #[test]
    fn indexing_and_slices() {
        let m = m();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert_eq!(m.col_index("b_1"), Some(2));
        assert_eq!(m.row_index("g2"), Some(1));
        assert_eq!(m.row_index("nope"), None);
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn dimension_mismatch_panics() {
        LabelledMatrix::new(vec!["r".to_string()], vec!["c".to_string()], vec![1.0, 2.0]);
    }

    #[test]
    fn selection() {
        let m = m();
        let top = m.select_rows(&[1]);
        assert_eq!(top.row_names, vec!["g2"]);
        assert_eq!(top.values, vec![4.0, 5.0, 6.0]);
        let cols = m.select_cols(&[2, 0]);
        assert_eq!(cols.col_names, vec!["b_1", "a_1"]);
        assert_eq!(cols.row(0), &[3.0, 1.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = m();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn means() {
        let m = m();
        assert_eq!(m.col_means(), vec![2.5, 3.5, 4.5]);
        assert_eq!(m.row_means(), vec![2.0, 5.0]);
    }

    #[test]
    fn map_in_place_applies() {
        let mut m = m();
        m.map_in_place(|v| v * 2.0);
        assert_eq!(m.get(0, 0), 2.0);
    }

    #[test]
    fn group_parsing_from_names() {
        let m = m();
        let (names, groups) = m.groups_from_col_names();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn zeros_shape() {
        let z = LabelledMatrix::zeros(
            vec!["r".to_string()],
            vec!["c1".to_string(), "c2".to_string()],
        );
        assert_eq!(z.values, vec![0.0, 0.0]);
    }
}
