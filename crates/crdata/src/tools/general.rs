//! General statistical tools (the remainder of the CRData catalog).

use std::sync::Arc;

use cumulus_galaxy::{CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolError, ToolInvocation};

use crate::stats::describe;
use crate::stats::fdr::{adjust, Adjustment};
use crate::stats::norm;
use crate::stats::regress::linear_regression;
use crate::stats::special::t_two_sided_p;
use crate::stats::survival::{kaplan_meier, median_survival, Subject};
use crate::stats::ttest::{one_sample_t_test, paired_t_test, pooled_t_test, welch_t_test};
use crate::svg::{self, PlotPoint};

use super::{float_param, fmt, int_param, matrix_input, svg_output, table_input, table_output};
use crate::matrix_to_content;

/// All general statistics tools.
pub fn tools() -> Vec<ToolDefinition> {
    vec![
        two_group_t_test(),
        paired_t_test_tool(),
        one_sample_t_test_tool(),
        multiple_testing_correction(),
        fold_change_tool(),
        zscore_normalize(),
        quantile_normalize_tool(),
        descriptive_statistics(),
        correlation_test(),
        linear_regression_tool(),
        histogram_plot(),
        scatter_plot_tool(),
        survival_kaplan_meier(),
        random_sample_table(),
    ]
}

fn out(name: &str, dtype: &str) -> OutputSpec {
    OutputSpec {
        name: name.to_string(),
        dtype: dtype.to_string(),
    }
}

/// Find a numeric column in a table by name. A cell that parses to NaN or
/// an infinity is a tool error naming the column and the (1-based) row:
/// the statistics downstream can neither order nor sum it.
fn numeric_column(
    columns: &[String],
    rows: &[Vec<String>],
    name: &str,
) -> Result<Vec<f64>, ToolError> {
    let idx = columns
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| ToolError(format!("table has no column {name:?}")))?;
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            let v: f64 = r
                .get(idx)
                .ok_or_else(|| ToolError("ragged table".to_string()))?
                .parse()
                .map_err(|_| ToolError(format!("{name}: {:?} is not numeric", r[idx])))?;
            finite_cell(name, i, v)
        })
        .collect()
}

/// `v` if finite, else the error for row `i` of column `name`.
fn finite_cell(name: &str, i: usize, v: f64) -> Result<f64, ToolError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ToolError(format!(
            "{name}: non-finite value {v} at row {}",
            i + 1
        )))
    }
}

/// Generic two-column t-test on a table.
fn two_group_t_test() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_twoGroupTTest".to_string(),
        name: "twoGroupTTest.R".to_string(),
        version: "1.0".to_string(),
        description: "two-sample t-test between two numeric columns".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column1", "First column", "group1"),
            ParamSpec::text("column2", "Second column", "group2"),
            ParamSpec::select(
                "variance",
                "Variance assumption",
                &["welch", "pooled"],
                "welch",
            ),
        ],
        outputs: vec![out("result", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let a = numeric_column(cols, rows, inv.param("column1").unwrap_or("group1"))?;
            let b = numeric_column(cols, rows, inv.param("column2").unwrap_or("group2"))?;
            let result = if inv.param("variance") == Some("pooled") {
                pooled_t_test(&a, &b)
            } else {
                welch_t_test(&a, &b)
            }
            .ok_or_else(|| {
                ToolError("degenerate input (need ≥2 values with variance)".to_string())
            })?;
            Ok(vec![table_output(
                "result",
                "t-test result",
                ["statistic", "df", "p.value", "mean.difference"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                vec![vec![
                    fmt(result.t),
                    fmt(result.df),
                    fmt(result.p),
                    fmt(result.mean_diff),
                ]],
            )])
        }),
    }
}

/// Paired t-test on two matched columns.
fn paired_t_test_tool() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_pairedTTest".to_string(),
        name: "pairedTTest.R".to_string(),
        version: "1.0".to_string(),
        description: "paired t-test between matched columns".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column1", "Before column", "before"),
            ParamSpec::text("column2", "After column", "after"),
        ],
        outputs: vec![out("result", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let a = numeric_column(cols, rows, inv.param("column1").unwrap_or("before"))?;
            let b = numeric_column(cols, rows, inv.param("column2").unwrap_or("after"))?;
            if a.len() != b.len() {
                return Err(ToolError("columns have different lengths".to_string()));
            }
            let result = paired_t_test(&a, &b)
                .ok_or_else(|| ToolError("degenerate paired input".to_string()))?;
            Ok(vec![table_output(
                "result",
                "paired t-test result",
                ["statistic", "df", "p.value", "mean.difference"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                vec![vec![
                    fmt(result.t),
                    fmt(result.df),
                    fmt(result.p),
                    fmt(result.mean_diff),
                ]],
            )])
        }),
    }
}

/// One-sample t-test.
fn one_sample_t_test_tool() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_oneSampleTTest".to_string(),
        name: "oneSampleTTest.R".to_string(),
        version: "1.0".to_string(),
        description: "one-sample t-test against a hypothesized mean".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column", "Column", "value"),
            ParamSpec::float("mu", "Hypothesized mean", 0.0),
        ],
        outputs: vec![out("result", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let xs = numeric_column(cols, rows, inv.param("column").unwrap_or("value"))?;
            let mu = float_param(inv, "mu")?;
            let result = one_sample_t_test(&xs, mu)
                .ok_or_else(|| ToolError("degenerate input".to_string()))?;
            Ok(vec![table_output(
                "result",
                "one-sample t-test result",
                ["statistic", "df", "p.value", "mean.difference"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                vec![vec![
                    fmt(result.t),
                    fmt(result.df),
                    fmt(result.p),
                    fmt(result.mean_diff),
                ]],
            )])
        }),
    }
}

/// Adjust a p-value column.
fn multiple_testing_correction() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_multipleTestingCorrection".to_string(),
        name: "multipleTestingCorrection.R".to_string(),
        version: "1.0".to_string(),
        description: "adjust a p-value column (BH / Holm / Bonferroni)".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table with a p-value column"),
            ParamSpec::text("column", "P-value column", "P.Value"),
            ParamSpec::select("method", "Method", &["BH", "holm", "bonferroni"], "BH"),
        ],
        outputs: vec![out("adjusted", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let pcol = inv.param("column").unwrap_or("P.Value").to_string();
            let p = numeric_column(cols, rows, &pcol)?;
            if p.iter().any(|x| !(0.0..=1.0).contains(x)) {
                return Err(ToolError("p-values must lie in [0,1]".to_string()));
            }
            let method = Adjustment::parse(inv.param("method").unwrap_or("BH"))
                .ok_or_else(|| ToolError("unknown method".to_string()))?;
            let adj = adjust(&p, method);
            let mut cols = cols.to_vec();
            cols.push("adj.P.Val".to_string());
            let new_rows: Vec<Vec<String>> = rows
                .iter()
                .zip(adj)
                .map(|(r, a)| {
                    let mut r = r.clone();
                    r.push(fmt(a));
                    r
                })
                .collect();
            Ok(vec![table_output(
                "adjusted",
                "adjusted p-values",
                cols,
                new_rows,
            )])
        }),
    }
}

/// Row-wise group fold change on an expression matrix.
fn fold_change_tool() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_foldChange".to_string(),
        name: "foldChange.R".to_string(),
        version: "1.0".to_string(),
        description: "per-row log2 fold change between the two groups of a matrix".to_string(),
        params: vec![ParamSpec::dataset("input", "Expression matrix")],
        outputs: vec![out("fc", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let (names, groups) = m.groups_from_col_names();
            if names.len() != 2 {
                return Err(ToolError("fold change needs two groups".to_string()));
            }
            let rows: Vec<Vec<String>> = (0..m.nrows())
                .map(|r| {
                    let row = m.row(r);
                    let g1 = describe::mean(&groups[0].iter().map(|&c| row[c]).collect::<Vec<_>>());
                    let g2 = describe::mean(&groups[1].iter().map(|&c| row[c]).collect::<Vec<_>>());
                    vec![m.row_names[r].clone(), fmt(g2 - g1)]
                })
                .collect();
            Ok(vec![table_output(
                "fc",
                "log2 fold changes",
                vec!["probe".to_string(), "log2FC".to_string()],
                rows,
            )])
        }),
    }
}

/// Z-score rows of a matrix.
fn zscore_normalize() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_zScoreNormalize".to_string(),
        name: "zScoreNormalize.R".to_string(),
        version: "1.0".to_string(),
        description: "row-wise z-score standardization of a matrix".to_string(),
        params: vec![ParamSpec::dataset("input", "Expression matrix")],
        outputs: vec![out("normalized", "matrix")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::zscore_rows(&mut m);
            Ok(vec![cumulus_galaxy::ToolOutput {
                name: "normalized".to_string(),
                dataset_name: "z-scored matrix".to_string(),
                content: matrix_to_content(m),
                size: None,
            }])
        }),
    }
}

/// Quantile-normalize matrix columns.
fn quantile_normalize_tool() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_quantileNormalize".to_string(),
        name: "quantileNormalize.R".to_string(),
        version: "1.0".to_string(),
        description: "force all matrix columns onto a common distribution".to_string(),
        params: vec![ParamSpec::dataset("input", "Expression matrix")],
        outputs: vec![out("normalized", "matrix")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::quantile_normalize(&mut m);
            Ok(vec![cumulus_galaxy::ToolOutput {
                name: "normalized".to_string(),
                dataset_name: "quantile-normalized matrix".to_string(),
                content: matrix_to_content(m),
                size: None,
            }])
        }),
    }
}

/// Describe every numeric column of a table.
fn descriptive_statistics() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_descriptiveStatistics".to_string(),
        name: "descriptiveStatistics.R".to_string(),
        version: "1.0".to_string(),
        description: "mean / sd / quartiles for every numeric column".to_string(),
        params: vec![ParamSpec::dataset("input", "Table")],
        outputs: vec![out("summary", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let mut out_rows = Vec::new();
            for (i, name) in cols.iter().enumerate() {
                let cells: Vec<(usize, f64)> = rows
                    .iter()
                    .enumerate()
                    .filter_map(|(r, row)| Some((r, row.get(i)?.parse().ok()?)))
                    .collect();
                if cells.len() < rows.len().max(1) / 2 {
                    continue; // mostly non-numeric column
                }
                let values = cells
                    .into_iter()
                    .map(|(r, v)| finite_cell(name, r, v))
                    .collect::<Result<Vec<f64>, _>>()?;
                let q = |p: f64| describe::quantile(&values, p).unwrap_or(0.0);
                out_rows.push(vec![
                    name.clone(),
                    values.len().to_string(),
                    fmt(describe::mean(&values)),
                    fmt(describe::std_dev(&values).unwrap_or(0.0)),
                    fmt(q(0.0)),
                    fmt(q(0.25)),
                    fmt(q(0.5)),
                    fmt(q(0.75)),
                    fmt(q(1.0)),
                ]);
            }
            if out_rows.is_empty() {
                return Err(ToolError("no numeric columns found".to_string()));
            }
            Ok(vec![table_output(
                "summary",
                "descriptive statistics",
                [
                    "column", "n", "mean", "sd", "min", "q1", "median", "q3", "max",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                out_rows,
            )])
        }),
    }
}

/// Correlation between two columns with a significance test.
fn correlation_test() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_correlationTest".to_string(),
        name: "correlationTest.R".to_string(),
        version: "1.0".to_string(),
        description: "Pearson correlation between two columns with a t-test".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column1", "X column", "x"),
            ParamSpec::text("column2", "Y column", "y"),
        ],
        outputs: vec![out("result", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let xs = numeric_column(cols, rows, inv.param("column1").unwrap_or("x"))?;
            let ys = numeric_column(cols, rows, inv.param("column2").unwrap_or("y"))?;
            if xs.len() != ys.len() || xs.len() < 3 {
                return Err(ToolError("need ≥3 matched observations".to_string()));
            }
            let r = describe::pearson(&xs, &ys)
                .ok_or_else(|| ToolError("zero-variance column".to_string()))?;
            let n = xs.len() as f64;
            let t = r * ((n - 2.0) / (1.0 - r * r).max(1e-12)).sqrt();
            let p = t_two_sided_p(t, n - 2.0);
            Ok(vec![table_output(
                "result",
                "correlation test",
                ["r", "t", "df", "p.value"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                vec![vec![fmt(r), fmt(t), fmt(n - 2.0), fmt(p)]],
            )])
        }),
    }
}

/// Simple linear regression.
fn linear_regression_tool() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_linearRegression".to_string(),
        name: "linearRegression.R".to_string(),
        version: "1.0".to_string(),
        description: "ordinary least squares y ~ x with fit plot".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column1", "X column", "x"),
            ParamSpec::text("column2", "Y column", "y"),
        ],
        outputs: vec![out("coefficients", "tabular"), out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let xs = numeric_column(cols, rows, inv.param("column1").unwrap_or("x"))?;
            let ys = numeric_column(cols, rows, inv.param("column2").unwrap_or("y"))?;
            if xs.len() != ys.len() {
                return Err(ToolError("columns have different lengths".to_string()));
            }
            let fit = linear_regression(&xs, &ys)
                .ok_or_else(|| ToolError("degenerate regression input".to_string()))?;
            let points: Vec<PlotPoint> = xs
                .iter()
                .zip(&ys)
                .map(|(&x, &y)| PlotPoint {
                    x,
                    y,
                    highlight: false,
                })
                .collect();
            Ok(vec![
                table_output(
                    "coefficients",
                    "regression coefficients",
                    ["intercept", "slope", "r.squared", "slope.p"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    vec![vec![
                        fmt(fit.intercept),
                        fmt(fit.slope),
                        fmt(fit.r_squared),
                        fmt(fit.slope_p),
                    ]],
                ),
                svg_output(
                    "plot",
                    "regression scatter",
                    svg::scatter_plot("linearRegression", "x", "y", &points),
                ),
            ])
        }),
    }
}

/// Histogram (binned counts table + figure-ready data).
fn histogram_plot() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_histogramPlot".to_string(),
        name: "histogramPlot.R".to_string(),
        version: "1.0".to_string(),
        description: "histogram of a numeric column".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column", "Column", "value"),
            ParamSpec::integer("bins", "Bins", 20, Some(1), Some(1000)),
        ],
        outputs: vec![out("bins", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let xs = numeric_column(cols, rows, inv.param("column").unwrap_or("value"))?;
            let bins = int_param(inv, "bins")? as usize;
            let (lo, hi) =
                describe::min_max(&xs).ok_or_else(|| ToolError("empty column".to_string()))?;
            let width = ((hi - lo) / bins as f64).max(1e-12);
            let mut counts = vec![0u64; bins];
            for &x in &xs {
                let mut b = ((x - lo) / width) as usize;
                if b >= bins {
                    b = bins - 1;
                }
                counts[b] += 1;
            }
            let out_rows: Vec<Vec<String>> = counts
                .iter()
                .enumerate()
                .map(|(b, c)| {
                    vec![
                        fmt(lo + b as f64 * width),
                        fmt(lo + (b + 1) as f64 * width),
                        c.to_string(),
                    ]
                })
                .collect();
            Ok(vec![table_output(
                "bins",
                "histogram bins",
                vec!["from".to_string(), "to".to_string(), "count".to_string()],
                out_rows,
            )])
        }),
    }
}

/// Plain scatter plot of two columns.
fn scatter_plot_tool() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_scatterPlot".to_string(),
        name: "scatterPlot.R".to_string(),
        version: "1.0".to_string(),
        description: "scatter plot of two numeric columns".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::text("column1", "X column", "x"),
            ParamSpec::text("column2", "Y column", "y"),
        ],
        outputs: vec![out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let xs = numeric_column(cols, rows, inv.param("column1").unwrap_or("x"))?;
            let ys = numeric_column(cols, rows, inv.param("column2").unwrap_or("y"))?;
            let points: Vec<PlotPoint> = xs
                .iter()
                .zip(&ys)
                .map(|(&x, &y)| PlotPoint {
                    x,
                    y,
                    highlight: false,
                })
                .collect();
            Ok(vec![svg_output(
                "plot",
                "scatter plot",
                svg::scatter_plot("scatterPlot", "x", "y", &points),
            )])
        }),
    }
}

/// Kaplan–Meier survival curve from a time/event table.
fn survival_kaplan_meier() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_survivalKaplanMeier".to_string(),
        name: "survivalKaplanMeier.R".to_string(),
        version: "1.0".to_string(),
        description: "Kaplan–Meier survival curve (CVRG cardiovascular follow-up data)".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table with time and event columns"),
            ParamSpec::text("time", "Time column", "time"),
            ParamSpec::text("event", "Event column (1 = event, 0 = censored)", "event"),
        ],
        outputs: vec![out("curve", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let times = numeric_column(cols, rows, inv.param("time").unwrap_or("time"))?;
            let events = numeric_column(cols, rows, inv.param("event").unwrap_or("event"))?;
            if times.len() != events.len() {
                return Err(ToolError("time/event length mismatch".to_string()));
            }
            let subjects: Vec<Subject> = times
                .iter()
                .zip(&events)
                .map(|(&time, &e)| Subject {
                    time,
                    event: e != 0.0,
                })
                .collect();
            let curve = kaplan_meier(&subjects);
            let mut out_rows: Vec<Vec<String>> = curve
                .iter()
                .map(|p| {
                    vec![
                        fmt(p.time),
                        p.at_risk.to_string(),
                        p.events.to_string(),
                        fmt(p.survival),
                    ]
                })
                .collect();
            let med = median_survival(&curve)
                .map(fmt)
                .unwrap_or_else(|| "NA".to_string());
            out_rows.push(vec![
                "(median)".to_string(),
                String::new(),
                String::new(),
                med,
            ]);
            Ok(vec![table_output(
                "curve",
                "Kaplan–Meier curve",
                ["time", "at.risk", "events", "survival"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                out_rows,
            )])
        }),
    }
}

/// Deterministic subsampling of table rows.
fn random_sample_table() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_randomSampleTable".to_string(),
        name: "randomSampleTable.R".to_string(),
        version: "1.0".to_string(),
        description: "reproducible subsample of table rows (seeded)".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Table"),
            ParamSpec::integer("n", "Rows to keep", 100, Some(1), Some(10_000_000)),
            ParamSpec::integer("seed", "Seed", 1, None, None),
        ],
        outputs: vec![out("sample", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "input")?;
            let n = int_param(inv, "n")? as usize;
            let seed = int_param(inv, "seed")? as u64;
            let mut rng = cumulus_simkit::rng::RngStream::derive(seed, "randomSampleTable");
            let mut indices: Vec<usize> = (0..rows.len()).collect();
            rng.shuffle(&mut indices);
            indices.truncate(n.min(rows.len()));
            indices.sort_unstable();
            let sampled: Vec<Vec<String>> = indices.iter().map(|&i| rows[i].clone()).collect();
            Ok(vec![table_output(
                "sample",
                &format!("random sample ({} rows)", sampled.len()),
                cols.to_vec(),
                sampled,
            )])
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus_galaxy::{Content, ContentBody};
    use cumulus_net::DataSize;

    fn table(cols: &[&str], rows: Vec<Vec<&str>>) -> Content {
        Content::new(ContentBody::Table {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(|c| c.to_string()).collect())
                .collect(),
        })
    }

    fn inv<'a>(content: &'a Content, params: &[(&str, &str)]) -> ToolInvocation<'a> {
        ToolInvocation {
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inputs: [("input".to_string(), content)].into_iter().collect(),
            input_size: DataSize::from_kb(10),
        }
    }

    fn first_table(outputs: &[cumulus_galaxy::ToolOutput]) -> (&Vec<String>, &Vec<Vec<String>>) {
        match outputs[0].content.body() {
            ContentBody::Table { columns, rows } => (columns, rows),
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn two_group_t_test_on_table() {
        let t = table(
            &["group1", "group2"],
            vec![
                vec!["30.02", "29.89"],
                vec!["29.99", "29.93"],
                vec!["30.11", "29.72"],
                vec!["29.97", "29.98"],
                vec!["30.01", "30.02"],
                vec!["29.99", "29.98"],
            ],
        );
        let outputs = two_group_t_test()
            .behavior
            .run(&inv(&t, &[("variance", "pooled")]))
            .unwrap();
        let (_, rows) = first_table(&outputs);
        let t_stat: f64 = rows[0][0].parse().unwrap();
        assert!((t_stat - 1.959).abs() < 0.01);
    }

    #[test]
    fn paired_and_one_sample_tests() {
        let t = table(
            &["before", "after"],
            (0..8)
                .map(|i| {
                    let b = 100.0 + i as f64;
                    vec![
                        Box::leak(format!("{b}").into_boxed_str()) as &str,
                        Box::leak(format!("{}", b + 3.0 + 0.1 * i as f64).into_boxed_str()) as &str,
                    ]
                })
                .collect(),
        );
        let outputs = paired_t_test_tool().behavior.run(&inv(&t, &[])).unwrap();
        let (_, rows) = first_table(&outputs);
        let p: f64 = rows[0][2].parse().unwrap();
        assert!(p < 0.001);

        let t = table(
            &["value"],
            vec![
                vec!["5.1"],
                vec!["4.9"],
                vec!["5.0"],
                vec!["5.2"],
                vec!["4.8"],
            ],
        );
        let outputs = one_sample_t_test_tool()
            .behavior
            .run(&inv(&t, &[("mu", "5.0")]))
            .unwrap();
        let (_, rows) = first_table(&outputs);
        let p: f64 = rows[0][2].parse().unwrap();
        assert!(p > 0.5);
    }

    #[test]
    fn correction_appends_adjusted_column() {
        let t = table(
            &["id", "P.Value"],
            vec![vec!["a", "0.01"], vec!["b", "0.02"], vec!["c", "0.03"]],
        );
        let outputs = multiple_testing_correction()
            .behavior
            .run(&inv(&t, &[("method", "bonferroni")]))
            .unwrap();
        let (cols, rows) = first_table(&outputs);
        assert_eq!(cols.last().map(String::as_str), Some("adj.P.Val"));
        assert_eq!(rows[0][2], "0.0300");

        let bad = table(&["P.Value"], vec![vec!["1.5"]]);
        assert!(multiple_testing_correction()
            .behavior
            .run(&inv(&bad, &[("method", "BH")]))
            .is_err());
    }

    #[test]
    fn descriptive_statistics_summarizes_numeric_columns() {
        let t = table(
            &["name", "weight"],
            vec![
                vec!["a", "10"],
                vec!["b", "20"],
                vec!["c", "30"],
                vec!["d", "40"],
            ],
        );
        let outputs = descriptive_statistics()
            .behavior
            .run(&inv(&t, &[]))
            .unwrap();
        let (_, rows) = first_table(&outputs);
        // Only "weight" qualifies as numeric.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "weight");
        assert_eq!(rows[0][2], "25.0000"); // mean
        assert_eq!(rows[0][6], "25.0000"); // median
    }

    #[test]
    fn correlation_and_regression_agree_on_a_line() {
        let rows: Vec<Vec<String>> = (0..20)
            .map(|i| vec![i.to_string(), (3 * i + 7).to_string()])
            .collect();
        let content = Content::new(ContentBody::Table {
            columns: vec!["x".to_string(), "y".to_string()],
            rows,
        });
        let outputs = correlation_test()
            .behavior
            .run(&inv(&content, &[]))
            .unwrap();
        let (_, rows) = first_table(&outputs);
        let r: f64 = rows[0][0].parse().unwrap();
        assert!((r - 1.0).abs() < 1e-9);

        let outputs = linear_regression_tool()
            .behavior
            .run(&inv(&content, &[]))
            .unwrap();
        let (_, rows) = first_table(&outputs);
        let intercept: f64 = rows[0][0].parse().unwrap();
        let slope: f64 = rows[0][1].parse().unwrap();
        assert!((intercept - 7.0).abs() < 1e-6);
        assert!((slope - 3.0).abs() < 1e-6);
        assert!(matches!(outputs[1].content.body(), ContentBody::Svg(_)));
    }

    #[test]
    fn histogram_covers_all_values() {
        let rows: Vec<Vec<String>> = (0..100).map(|i| vec![format!("{}", i % 10)]).collect();
        let content = Content::new(ContentBody::Table {
            columns: vec!["value".to_string()],
            rows,
        });
        let outputs = histogram_plot()
            .behavior
            .run(&inv(&content, &[("bins", "10")]))
            .unwrap();
        let (_, rows) = first_table(&outputs);
        assert_eq!(rows.len(), 10);
        let total: u64 = rows.iter().map(|r| r[2].parse::<u64>().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn survival_curve_matches_km() {
        let t = table(
            &["time", "event"],
            vec![
                vec!["6", "1"],
                vec!["6", "1"],
                vec!["6", "1"],
                vec!["6", "0"],
                vec!["7", "1"],
                vec!["9", "0"],
                vec!["10", "1"],
                vec!["10", "0"],
                vec!["11", "0"],
                vec!["13", "1"],
            ],
        );
        let outputs = survival_kaplan_meier().behavior.run(&inv(&t, &[])).unwrap();
        let (_, rows) = first_table(&outputs);
        // First event time 6: S = 0.7.
        assert_eq!(rows[0][0], "6.0000");
        assert_eq!(rows[0][3], "0.7000");
        assert_eq!(rows.last().unwrap()[0], "(median)");
    }

    #[test]
    fn random_sample_is_deterministic() {
        let rows: Vec<Vec<String>> = (0..50).map(|i| vec![i.to_string()]).collect();
        let content = Content::new(ContentBody::Table {
            columns: vec!["id".to_string()],
            rows,
        });
        let run = |seed: &str| {
            let outputs = random_sample_table()
                .behavior
                .run(&inv(&content, &[("n", "10"), ("seed", seed)]))
                .unwrap();
            match outputs[0].content.body() {
                ContentBody::Table { rows, .. } => rows.clone(),
                other => panic!("expected ContentBody::Table, got {other:?}"),
            }
        };
        assert_eq!(run("1"), run("1"));
        assert_ne!(run("1"), run("2"));
        assert_eq!(run("1").len(), 10);
    }

    #[test]
    fn zscore_and_quantile_normalize_matrices() {
        let m = Content::new(ContentBody::Matrix {
            row_names: vec!["g1".to_string(), "g2".to_string()],
            col_names: vec!["a_1".to_string(), "b_1".to_string()],
            values: vec![1.0, 5.0, 2.0, 10.0],
        });
        let outputs = zscore_normalize().behavior.run(&inv(&m, &[])).unwrap();
        match outputs[0].content.body() {
            ContentBody::Matrix { values, .. } => {
                assert!((values[0] + values[1]).abs() < 1e-12, "row sums to zero");
            }
            other => panic!("expected ContentBody::Matrix, got {other:?}"),
        }
        let outputs = quantile_normalize_tool()
            .behavior
            .run(&inv(&m, &[]))
            .unwrap();
        assert!(matches!(
            outputs[0].content.body(),
            ContentBody::Matrix { .. }
        ));
    }

    #[test]
    fn fold_change_on_grouped_matrix() {
        // Two groups; second gene doubled in group b (log2FC = 1).
        let m = Content::new(ContentBody::Matrix {
            row_names: vec!["g1".to_string(), "g2".to_string()],
            col_names: vec![
                "a_1".to_string(),
                "a_2".to_string(),
                "b_1".to_string(),
                "b_2".to_string(),
            ],
            values: vec![
                8.0, 8.0, 8.0, 8.0, // g1: flat
                4.0, 4.0, 8.0, 8.0, // g2: doubled in group b
            ],
        });
        let outputs = fold_change_tool().behavior.run(&inv(&m, &[])).unwrap();
        let (_, rows) = first_table(&outputs);
        let fc_g1: f64 = rows[0][1].parse().unwrap();
        let fc_g2: f64 = rows[1][1].parse().unwrap();
        assert!(fc_g1.abs() < 1e-9, "flat gene FC {fc_g1}");
        assert!((fc_g2 - 1.0).abs() < 1e-9, "doubled gene FC {fc_g2}");

        // One group only is rejected.
        let single = Content::new(ContentBody::Matrix {
            row_names: vec!["g".to_string()],
            col_names: vec!["a_1".to_string(), "a_2".to_string()],
            values: vec![1.0, 2.0],
        });
        assert!(fold_change_tool().behavior.run(&inv(&single, &[])).is_err());
    }

    #[test]
    fn scatter_plot_draws_every_row() {
        let rows: Vec<Vec<String>> = (0..25)
            .map(|i| vec![i.to_string(), (i * i).to_string()])
            .collect();
        let content = Content::new(ContentBody::Table {
            columns: vec!["x".to_string(), "y".to_string()],
            rows,
        });
        let outputs = scatter_plot_tool()
            .behavior
            .run(&inv(&content, &[]))
            .unwrap();
        match outputs[0].content.body() {
            ContentBody::Svg(svg) => {
                assert_eq!(svg.matches("<circle").count(), 25);
            }
            other => panic!("expected SVG, got {other:?}"),
        }
    }

    #[test]
    fn missing_columns_error() {
        let t = table(&["a"], vec![vec!["1"]]);
        let err = two_group_t_test().behavior.run(&inv(&t, &[])).unwrap_err();
        assert!(err.0.contains("no column"));
    }
}
