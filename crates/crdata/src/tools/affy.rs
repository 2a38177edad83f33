//! Expression-array (Affymetrix) tools.

use std::sync::Arc;

use cumulus_galaxy::{CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolError, ToolInvocation};

use crate::matrix::LabelledMatrix;
use crate::stats::classify::{knn_loocv_accuracy, Example, NearestCentroid};
use crate::stats::cluster::{hierarchical, kmeans, Linkage};
use crate::stats::describe;
use crate::stats::distance::Metric;
use crate::stats::fdr::{adjust, Adjustment};
use crate::stats::norm;
use crate::stats::order::ascending_order;
use crate::stats::regress::{pca_scores, principal_components};
use crate::stats::ttest::welch_t_test;
use crate::svg::{self, PlotPoint};

use super::{fmt, int_param, matrix_input, svg_output, table_output};
use crate::matrix_to_content;

/// All expression tools.
pub fn tools() -> Vec<ToolDefinition> {
    vec![
        affy_differential_expression(),
        affy_classify(),
        affy_normalize(),
        affy_qc(),
        heatmap_plot_demo(),
        affy_boxplot(),
        affy_ma_plot(),
        affy_volcano_plot(),
        affy_pca(),
        affy_correlation_matrix(),
        affy_gene_filter(),
        affy_cluster_samples(),
        affy_kmeans_genes(),
    ]
}

fn out(name: &str, dtype: &str) -> OutputSpec {
    OutputSpec {
        name: name.to_string(),
        dtype: dtype.to_string(),
    }
}

/// Normalize (RMA-like) then split a matrix into the two groups encoded in
/// its sample names.
#[allow(clippy::type_complexity)]
fn normalized_groups(
    inv: &ToolInvocation,
) -> Result<(LabelledMatrix, Vec<String>, Vec<Vec<usize>>), ToolError> {
    let mut m = matrix_input(inv, "input")?;
    if inv.param("normalize") != Some("no") {
        norm::rma_like(&mut m);
    } else {
        norm::log2_transform(&mut m);
    }
    let (names, groups) = m.groups_from_col_names();
    Ok((m, names, groups))
}

/// The per-probe differential-expression table shared by several tools.
struct DiffExpr {
    probes: Vec<String>,
    log_fc: Vec<f64>,
    t: Vec<f64>,
    p: Vec<f64>,
    adj_p: Vec<f64>,
}

fn differential_expression(inv: &ToolInvocation) -> Result<DiffExpr, ToolError> {
    let (m, names, groups) = normalized_groups(inv)?;
    if names.len() != 2 {
        return Err(ToolError(format!(
            "two-group test requires exactly 2 groups in sample names, found {names:?}"
        )));
    }
    let method = Adjustment::parse(inv.param("adjust").unwrap_or("BH"))
        .ok_or_else(|| ToolError("unknown adjustment method".to_string()))?;
    let mut log_fc = Vec::with_capacity(m.nrows());
    let mut t_stats = Vec::with_capacity(m.nrows());
    let mut p_values = Vec::with_capacity(m.nrows());
    let mut g1 = Vec::with_capacity(groups[0].len());
    let mut g2 = Vec::with_capacity(groups[1].len());
    for r in 0..m.nrows() {
        let row = m.row(r);
        g1.clear();
        g1.extend(groups[0].iter().map(|&c| row[c]));
        g2.clear();
        g2.extend(groups[1].iter().map(|&c| row[c]));
        let result = welch_t_test(&g2, &g1);
        let (t, p, diff) = match result {
            Some(r) => (r.t, r.p, r.mean_diff),
            None => (0.0, 1.0, describe::mean(&g2) - describe::mean(&g1)),
        };
        log_fc.push(diff); // already log2 scale
        t_stats.push(t);
        p_values.push(p);
    }
    let adj_p = adjust(&p_values, method);
    Ok(DiffExpr {
        probes: m.row_names,
        log_fc,
        t: t_stats,
        p: p_values,
        adj_p,
    })
}

/// `affyDifferentialExpression.R` — "conducts two-group differential
/// expression on Affymetrix CEL files … creates a top table of probe sets
/// that are differentially expressed" (§V.A, Figures 7–9).
fn affy_differential_expression() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyDifferentialExpression".to_string(),
        name: "affyDifferentialExpression.R".to_string(),
        version: "1.0".to_string(),
        description: "two-group differential expression on Affymetrix CEL files".to_string(),
        params: vec![
            ParamSpec::dataset("input", "CEL file archive"),
            ParamSpec::select("normalize", "Normalize first", &["yes", "no"], "yes"),
            ParamSpec::select(
                "adjust",
                "P-value adjustment",
                &["BH", "holm", "bonferroni", "none"],
                "BH",
            ),
            ParamSpec::integer("top", "Top table size", 50, Some(1), Some(100_000)),
        ],
        outputs: vec![out("toptable", "tabular"), out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let de = differential_expression(inv)?;
            let top = int_param(inv, "top")? as usize;
            // Rank by adjusted p (ties in probe order).
            let mut order = ascending_order(de.adj_p.iter().copied()).expect("finite p");
            order.truncate(top);
            let rows: Vec<Vec<String>> = order
                .iter()
                .map(|&i| {
                    vec![
                        de.probes[i].clone(),
                        fmt(de.log_fc[i]),
                        fmt(de.t[i]),
                        fmt(de.p[i]),
                        fmt(de.adj_p[i]),
                    ]
                })
                .collect();
            let columns = ["ID", "logFC", "t", "P.Value", "adj.P.Val"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            // Volcano figure of all probes, significant ones highlighted.
            let points: Vec<PlotPoint> = (0..de.probes.len())
                .map(|i| PlotPoint {
                    x: de.log_fc[i],
                    y: -de.p[i].max(1e-300).log10(),
                    highlight: de.adj_p[i] <= 0.05,
                })
                .collect();
            Ok(vec![
                table_output(
                    "toptable",
                    "top table (differential expression)",
                    columns,
                    rows,
                ),
                svg_output(
                    "plot",
                    "volcano plot",
                    svg::scatter_plot(
                        "affyDifferentialExpression",
                        "log2 fold change",
                        "-log10 p",
                        &points,
                    ),
                ),
            ])
        }),
    }
}

/// `affyClassify.R` — "statistical classification of affymetrix CEL Files
/// into groups".
fn affy_classify() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyClassify".to_string(),
        name: "affyClassify.R".to_string(),
        version: "1.0".to_string(),
        description: "statistical classification of Affymetrix CEL files into groups".to_string(),
        params: vec![
            ParamSpec::dataset("input", "CEL file archive (training groups in names)"),
            ParamSpec::select("method", "Classifier", &["centroid", "knn"], "centroid"),
            ParamSpec::integer("k", "k (for knn)", 3, Some(1), Some(25)),
        ],
        outputs: vec![out("assignments", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (m, _names, _groups) = normalized_groups(inv)?;
            // Each sample is an example; label = group prefix.
            let examples: Vec<Example> = (0..m.ncols())
                .map(|c| Example {
                    features: m.col(c),
                    label: m.col_names[c].split('_').next().unwrap_or("?").to_string(),
                })
                .collect();
            let method = inv.param("method").unwrap_or("centroid").to_string();
            let k = int_param(inv, "k")? as usize;
            let mut rows = Vec::with_capacity(examples.len());
            match method.as_str() {
                "centroid" => {
                    let model =
                        NearestCentroid::fit(&examples, Metric::Correlation).map_err(ToolError)?;
                    for (c, ex) in examples.iter().enumerate() {
                        let (label, d) = model.predict(&ex.features);
                        rows.push(vec![
                            m.col_names[c].clone(),
                            ex.label.clone(),
                            label,
                            fmt(d),
                        ]);
                    }
                }
                _ => {
                    for (c, ex) in examples.iter().enumerate() {
                        let rest: Vec<Example> = examples
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != c)
                            .map(|(_, e)| e.clone())
                            .collect();
                        let label = crate::stats::classify::knn_predict(
                            &rest,
                            &ex.features,
                            k,
                            Metric::Correlation,
                        );
                        rows.push(vec![
                            m.col_names[c].clone(),
                            ex.label.clone(),
                            label,
                            String::new(),
                        ]);
                    }
                }
            }
            let accuracy = knn_loocv_accuracy(&examples, k, Metric::Correlation);
            rows.push(vec![
                "(loocv-accuracy)".to_string(),
                String::new(),
                String::new(),
                fmt(accuracy),
            ]);
            Ok(vec![table_output(
                "assignments",
                "sample classification",
                ["sample", "true", "predicted", "score"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                rows,
            )])
        }),
    }
}

/// RMA-like normalization as a standalone step.
fn affy_normalize() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyNormalize".to_string(),
        name: "affyNormalize.R".to_string(),
        version: "1.0".to_string(),
        description: "RMA-style background correction, quantile normalization, log2".to_string(),
        params: vec![ParamSpec::dataset("input", "CEL file archive")],
        outputs: vec![out("normalized", "matrix")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::rma_like(&mut m);
            Ok(vec![cumulus_galaxy::ToolOutput {
                name: "normalized".to_string(),
                dataset_name: "normalized expression matrix".to_string(),
                content: matrix_to_content(m),
                size: None,
            }])
        }),
    }
}

/// Per-sample quality-control statistics.
fn affy_qc() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyQC".to_string(),
        name: "affyQC.R".to_string(),
        version: "1.0".to_string(),
        description: "per-array quality metrics (mean, sd, median, MAD)".to_string(),
        params: vec![ParamSpec::dataset("input", "CEL file archive")],
        outputs: vec![out("qc", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let rows: Vec<Vec<String>> = (0..m.ncols())
                .map(|c| {
                    let col = m.col(c);
                    vec![
                        m.col_names[c].clone(),
                        fmt(describe::mean(&col)),
                        fmt(describe::std_dev(&col).unwrap_or(0.0)),
                        fmt(describe::median(&col).unwrap_or(0.0)),
                        fmt(describe::mad(&col).unwrap_or(0.0)),
                    ]
                })
                .collect();
            Ok(vec![table_output(
                "qc",
                "array QC metrics",
                ["sample", "mean", "sd", "median", "mad"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                rows,
            )])
        }),
    }
}

/// `heatmap_plot_demo.R` — "performs hierarchical clustering by genes or
/// samples, and then plots a heatmap".
fn heatmap_plot_demo() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_heatmap_plot_demo".to_string(),
        name: "heatmap_plot_demo.R".to_string(),
        version: "1.0".to_string(),
        description: "hierarchical clustering by genes or samples, plotted as a heatmap"
            .to_string(),
        params: vec![
            ParamSpec::dataset("input", "Expression matrix"),
            ParamSpec::select("by", "Cluster by", &["genes", "samples"], "genes"),
            ParamSpec::select(
                "linkage",
                "Linkage",
                &["average", "complete", "single"],
                "average",
            ),
            ParamSpec::integer("top", "Most-variable genes to draw", 40, Some(2), Some(500)),
        ],
        outputs: vec![out("heatmap", "svg"), out("order", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            // Keep the most variable genes.
            let top = int_param(inv, "top")? as usize;
            let mut by_var: Vec<usize> = (0..m.nrows()).collect();
            by_var.sort_by(|&a, &b| {
                let va = describe::variance(m.row(a)).unwrap_or(0.0);
                let vb = describe::variance(m.row(b)).unwrap_or(0.0);
                vb.partial_cmp(&va).expect("finite")
            });
            by_var.truncate(top.min(m.nrows()));
            let mut sub = m.select_rows(&by_var);
            norm::zscore_rows(&mut sub);

            let linkage = Linkage::parse(inv.param("linkage").unwrap_or("average"))
                .ok_or_else(|| ToolError("unknown linkage".to_string()))?;
            let by_samples = inv.param("by") == Some("samples");
            let items: Vec<Vec<f64>> = if by_samples {
                (0..sub.ncols()).map(|c| sub.col(c)).collect()
            } else {
                (0..sub.nrows()).map(|r| sub.row(r).to_vec()).collect()
            };
            let dend = hierarchical(&items, Metric::Correlation, linkage);
            let order = dend.leaf_order();

            let (row_labels, col_labels, values) = if by_samples {
                let cols: Vec<usize> = order.clone();
                let reordered = sub.select_cols(&cols);
                (
                    reordered.row_names.clone(),
                    reordered.col_names.clone(),
                    (0..reordered.nrows())
                        .map(|r| reordered.row(r).to_vec())
                        .collect::<Vec<_>>(),
                )
            } else {
                let reordered = sub.select_rows(&order);
                (
                    reordered.row_names.clone(),
                    reordered.col_names.clone(),
                    (0..reordered.nrows())
                        .map(|r| reordered.row(r).to_vec())
                        .collect::<Vec<_>>(),
                )
            };
            let svg_doc = svg::heatmap("heatmap_plot_demo", &row_labels, &col_labels, &values);
            let order_rows: Vec<Vec<String>> = order
                .iter()
                .enumerate()
                .map(|(pos, &leaf)| {
                    let label = if by_samples {
                        sub.col_names[leaf].clone()
                    } else {
                        sub.row_names[leaf].clone()
                    };
                    vec![pos.to_string(), label]
                })
                .collect();
            Ok(vec![
                svg_output("heatmap", "clustered heatmap", svg_doc),
                table_output(
                    "order",
                    "dendrogram leaf order",
                    vec!["position".to_string(), "label".to_string()],
                    order_rows,
                ),
            ])
        }),
    }
}

/// Per-sample expression distribution boxplot.
fn affy_boxplot() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyBoxplot".to_string(),
        name: "affyBoxplot.R".to_string(),
        version: "1.0".to_string(),
        description: "per-array intensity distribution boxplot".to_string(),
        params: vec![ParamSpec::dataset("input", "Expression matrix")],
        outputs: vec![out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let groups: Vec<(String, [f64; 5])> = (0..m.ncols())
                .map(|c| {
                    let col = m.col(c);
                    let q = |p: f64| describe::quantile(&col, p).unwrap_or(0.0);
                    (
                        m.col_names[c].clone(),
                        [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)],
                    )
                })
                .collect();
            Ok(vec![svg_output(
                "plot",
                "intensity boxplot",
                svg::boxplot("affyBoxplot", &groups),
            )])
        }),
    }
}

/// MA plot between the two groups' mean profiles.
fn affy_ma_plot() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyMAPlot".to_string(),
        name: "affyMAPlot.R".to_string(),
        version: "1.0".to_string(),
        description: "MA plot of group means (M = log ratio, A = mean intensity)".to_string(),
        params: vec![ParamSpec::dataset("input", "CEL file archive")],
        outputs: vec![out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (m, names, groups) = normalized_groups(inv)?;
            if names.len() != 2 {
                return Err(ToolError("MA plot needs two groups".to_string()));
            }
            let points: Vec<PlotPoint> = (0..m.nrows())
                .map(|r| {
                    let row = m.row(r);
                    let g1 = describe::mean(&groups[0].iter().map(|&c| row[c]).collect::<Vec<_>>());
                    let g2 = describe::mean(&groups[1].iter().map(|&c| row[c]).collect::<Vec<_>>());
                    let m_val = g2 - g1;
                    PlotPoint {
                        x: (g1 + g2) / 2.0,
                        y: m_val,
                        highlight: m_val.abs() > 1.0,
                    }
                })
                .collect();
            Ok(vec![svg_output(
                "plot",
                "MA plot",
                svg::scatter_plot(
                    "affyMAPlot",
                    "A (mean log2 intensity)",
                    "M (log2 ratio)",
                    &points,
                ),
            )])
        }),
    }
}

/// Volcano plot as a standalone tool.
fn affy_volcano_plot() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyVolcanoPlot".to_string(),
        name: "affyVolcanoPlot.R".to_string(),
        version: "1.0".to_string(),
        description: "volcano plot (fold change vs significance)".to_string(),
        params: vec![
            ParamSpec::dataset("input", "CEL file archive"),
            ParamSpec::float("alpha", "Significance threshold", 0.05),
        ],
        outputs: vec![out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let de = differential_expression(inv)?;
            let alpha = super::float_param(inv, "alpha")?;
            let points: Vec<PlotPoint> = (0..de.probes.len())
                .map(|i| PlotPoint {
                    x: de.log_fc[i],
                    y: -de.p[i].max(1e-300).log10(),
                    highlight: de.adj_p[i] <= alpha,
                })
                .collect();
            Ok(vec![svg_output(
                "plot",
                "volcano plot",
                svg::scatter_plot("affyVolcanoPlot", "log2 fold change", "-log10 p", &points),
            )])
        }),
    }
}

/// PCA of samples.
fn affy_pca() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyPCA".to_string(),
        name: "affyPCA.R".to_string(),
        version: "1.0".to_string(),
        description: "principal-component analysis of arrays".to_string(),
        params: vec![ParamSpec::dataset("input", "Expression matrix")],
        outputs: vec![out("scores", "tabular"), out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let items: Vec<Vec<f64>> = (0..m.ncols()).map(|c| m.col(c)).collect();
            let (comps, vars) = principal_components(&items, 2);
            if comps.is_empty() {
                return Err(ToolError("PCA needs at least two samples".to_string()));
            }
            let scores = pca_scores(&items, &comps);
            let rows: Vec<Vec<String>> = scores
                .iter()
                .enumerate()
                .map(|(c, s)| {
                    vec![
                        m.col_names[c].clone(),
                        fmt(s[0]),
                        fmt(*s.get(1).unwrap_or(&0.0)),
                    ]
                })
                .collect();
            let points: Vec<PlotPoint> = scores
                .iter()
                .enumerate()
                .map(|(c, s)| PlotPoint {
                    x: s[0],
                    y: *s.get(1).unwrap_or(&0.0),
                    highlight: m.col_names[c].starts_with("g2"),
                })
                .collect();
            let var_note = format!(
                "PC variances: {}",
                vars.iter().map(|v| fmt(*v)).collect::<Vec<_>>().join(", ")
            );
            let mut table_rows = rows;
            table_rows.push(vec![var_note, String::new(), String::new()]);
            Ok(vec![
                table_output(
                    "scores",
                    "PCA scores",
                    ["sample", "PC1", "PC2"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    table_rows,
                ),
                svg_output(
                    "plot",
                    "PCA plot",
                    svg::scatter_plot("affyPCA", "PC1", "PC2", &points),
                ),
            ])
        }),
    }
}

/// Sample–sample correlation matrix.
fn affy_correlation_matrix() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyCorrelationMatrix".to_string(),
        name: "affyCorrelationMatrix.R".to_string(),
        version: "1.0".to_string(),
        description: "pairwise Pearson correlation between arrays".to_string(),
        params: vec![ParamSpec::dataset("input", "Expression matrix")],
        outputs: vec![out("correlations", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let cols: Vec<Vec<f64>> = (0..m.ncols()).map(|c| m.col(c)).collect();
            let mut rows = Vec::with_capacity(m.ncols());
            for i in 0..m.ncols() {
                let mut row = vec![m.col_names[i].clone()];
                for j in 0..m.ncols() {
                    let r = if i == j {
                        1.0
                    } else {
                        describe::pearson(&cols[i], &cols[j]).unwrap_or(0.0)
                    };
                    row.push(fmt(r));
                }
                rows.push(row);
            }
            let mut columns = vec!["sample".to_string()];
            columns.extend(m.col_names.iter().cloned());
            Ok(vec![table_output(
                "correlations",
                "sample correlation matrix",
                columns,
                rows,
            )])
        }),
    }
}

/// Variance/intensity gene filtering.
fn affy_gene_filter() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyGeneFilter".to_string(),
        name: "affyGeneFilter.R".to_string(),
        version: "1.0".to_string(),
        description: "filter probes by minimum intensity and variance".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Expression matrix"),
            ParamSpec::float("min_mean", "Minimum mean log2 intensity", 5.0),
            ParamSpec::float("min_var", "Minimum variance", 0.01),
        ],
        outputs: vec![out("filtered", "matrix")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let min_mean = super::float_param(inv, "min_mean")?;
            let min_var = super::float_param(inv, "min_var")?;
            let keep: Vec<usize> = (0..m.nrows())
                .filter(|&r| {
                    let row = m.row(r);
                    describe::mean(row) >= min_mean
                        && describe::variance(row).unwrap_or(0.0) >= min_var
                })
                .collect();
            if keep.is_empty() {
                return Err(ToolError("filter removed every probe".to_string()));
            }
            let filtered = m.select_rows(&keep);
            Ok(vec![cumulus_galaxy::ToolOutput {
                name: "filtered".to_string(),
                dataset_name: format!("filtered matrix ({} probes kept)", keep.len()),
                content: matrix_to_content(filtered),
                size: None,
            }])
        }),
    }
}

/// Hierarchical clustering of samples with cluster assignments.
fn affy_cluster_samples() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyClusterSamples".to_string(),
        name: "affyClusterSamples.R".to_string(),
        version: "1.0".to_string(),
        description: "hierarchical clustering of arrays with a cut into k clusters".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Expression matrix"),
            ParamSpec::integer("k", "Clusters", 2, Some(1), Some(20)),
            ParamSpec::select(
                "linkage",
                "Linkage",
                &["average", "complete", "single"],
                "average",
            ),
        ],
        outputs: vec![out("clusters", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            let linkage = Linkage::parse(inv.param("linkage").unwrap_or("average"))
                .ok_or_else(|| ToolError("unknown linkage".to_string()))?;
            let k = int_param(inv, "k")? as usize;
            let items: Vec<Vec<f64>> = (0..m.ncols()).map(|c| m.col(c)).collect();
            let dend = hierarchical(&items, Metric::Correlation, linkage);
            let labels = dend.cut(k);
            let rows: Vec<Vec<String>> = labels
                .iter()
                .enumerate()
                .map(|(c, l)| vec![m.col_names[c].clone(), l.to_string()])
                .collect();
            Ok(vec![table_output(
                "clusters",
                "sample clusters",
                vec!["sample".to_string(), "cluster".to_string()],
                rows,
            )])
        }),
    }
}

/// k-means clustering of genes.
fn affy_kmeans_genes() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_affyKMeansGenes".to_string(),
        name: "affyKMeansGenes.R".to_string(),
        version: "1.0".to_string(),
        description: "k-means clustering of gene expression profiles".to_string(),
        params: vec![
            ParamSpec::dataset("input", "Expression matrix"),
            ParamSpec::integer("k", "Clusters", 4, Some(1), Some(50)),
        ],
        outputs: vec![out("clusters", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let mut m = matrix_input(inv, "input")?;
            norm::log2_transform(&mut m);
            norm::zscore_rows(&mut m);
            let k = int_param(inv, "k")? as usize;
            let items: Vec<Vec<f64>> = (0..m.nrows()).map(|r| m.row(r).to_vec()).collect();
            let (labels, _) = kmeans(&items, k, 100);
            let rows: Vec<Vec<String>> = labels
                .iter()
                .enumerate()
                .map(|(r, l)| vec![m.row_names[r].clone(), l.to_string()])
                .collect();
            Ok(vec![table_output(
                "clusters",
                "gene clusters",
                vec!["probe".to_string(), "cluster".to_string()],
                rows,
            )])
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate_cel_bundle, CelBundleSpec};
    use cumulus_galaxy::{Content, ContentBody};
    use cumulus_net::DataSize;
    use cumulus_simkit::rng::RngStream;
    use std::collections::BTreeMap;

    fn bundle(bundle_spec: &CelBundleSpec) -> Content {
        let bundle = generate_cel_bundle(bundle_spec, &mut RngStream::derive(5, "affy-test"));
        matrix_to_content(bundle.matrix)
    }

    fn invocation_for<'a>(input: &'a Content, extra: &[(&str, &str)]) -> ToolInvocation<'a> {
        let mut inputs = BTreeMap::new();
        inputs.insert("input".to_string(), input);
        let mut params: BTreeMap<String, String> = extra
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        params
            .entry("normalize".to_string())
            .or_insert("yes".to_string());
        params
            .entry("adjust".to_string())
            .or_insert("BH".to_string());
        params.entry("top".to_string()).or_insert("50".to_string());
        ToolInvocation {
            params,
            inputs,
            input_size: spec().archive_size,
        }
    }

    fn spec() -> CelBundleSpec {
        CelBundleSpec {
            samples_per_group: 4,
            probes: 400,
            differential: 25,
            effect_log2: 2.0,
            archive_size: DataSize::from_mb(1),
        }
    }

    #[test]
    fn differential_expression_recovers_planted_probes() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[("top", "25")]);
        let outputs = affy_differential_expression().behavior.run(&inv).unwrap();
        assert_eq!(outputs.len(), 2);
        let (cols, rows) = match outputs[0].content.body() {
            cumulus_galaxy::ContentBody::Table { columns, rows } => (columns, rows),
            other => panic!("expected table, got {other:?}"),
        };
        assert_eq!(cols[0], "ID");
        assert_eq!(rows.len(), 25);
        // Most of the top 25 should be planted probes (probe_000xx with
        // index < 25).
        let planted_hits = rows
            .iter()
            .filter(|r| {
                let idx: usize = r[0]
                    .trim_start_matches("probe_")
                    .trim_end_matches("_at")
                    .parse()
                    .unwrap();
                idx < 25
            })
            .count();
        assert!(
            planted_hits >= 20,
            "only {planted_hits}/25 planted probes in top table"
        );
        // Adjusted p of the best hit is tiny.
        let p: f64 = rows[0][4].parse().unwrap();
        assert!(p < 0.01, "best adj.P {p}");
        // Figure output is SVG.
        assert!(matches!(
            outputs[1].content.body(),
            cumulus_galaxy::ContentBody::Svg(_)
        ));
    }

    #[test]
    fn classify_separates_groups_perfectly_with_strong_effect() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[("method", "centroid"), ("k", "3")]);
        let outputs = affy_classify().behavior.run(&inv).unwrap();
        let rows = match outputs[0].content.body() {
            cumulus_galaxy::ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        // All 8 samples predicted to match their true group.
        let correct = rows
            .iter()
            .filter(|r| !r[0].starts_with('(') && r[1] == r[2])
            .count();
        assert_eq!(correct, 8, "{rows:?}");
    }

    #[test]
    fn heatmap_and_order_outputs() {
        let input = bundle(&spec());
        let inv = invocation_for(
            &input,
            &[("by", "genes"), ("linkage", "average"), ("top", "30")],
        );
        let outputs = heatmap_plot_demo().behavior.run(&inv).unwrap();
        assert!(matches!(
            outputs[0].content.body(),
            cumulus_galaxy::ContentBody::Svg(_)
        ));
        let rows = match outputs[1].content.body() {
            cumulus_galaxy::ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert_eq!(rows.len(), 30, "leaf order covers the drawn genes");
    }

    #[test]
    fn pca_separates_the_groups_on_pc1() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[]);
        let outputs = affy_pca().behavior.run(&inv).unwrap();
        let rows = match outputs[0].content.body() {
            cumulus_galaxy::ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        let pc1: Vec<f64> = rows.iter().take(8).map(|r| r[1].parse().unwrap()).collect();
        let g1 = crate::stats::describe::mean(&pc1[..4]);
        let g2 = crate::stats::describe::mean(&pc1[4..]);
        assert!((g1 - g2).abs() > 1.0, "groups overlap on PC1: {pc1:?}");
    }

    #[test]
    fn qc_boxplot_and_correlation_tools_run() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[]);
        assert_eq!(affy_qc().behavior.run(&inv).unwrap().len(), 1);
        assert_eq!(affy_boxplot().behavior.run(&inv).unwrap().len(), 1);
        let corr = affy_correlation_matrix().behavior.run(&inv).unwrap();
        let rows = match corr[0].content.body() {
            cumulus_galaxy::ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        // Diagonal is exactly 1.
        assert_eq!(rows[0][1], "1.0000");
        // Within-group correlation beats between-group correlation.
        let r_within: f64 = rows[0][2].parse().unwrap();
        let r_between: f64 = rows[0][5].parse().unwrap();
        assert!(r_within > r_between, "{r_within} vs {r_between}");
    }

    #[test]
    fn gene_filter_shrinks_matrix() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[("min_mean", "7.0"), ("min_var", "0.0")]);
        let outputs = affy_gene_filter().behavior.run(&inv).unwrap();
        let (rows, _cols) = match outputs[0].content.body() {
            cumulus_galaxy::ContentBody::Matrix {
                row_names,
                col_names,
                ..
            } => (row_names.len(), col_names.len()),
            other => panic!("expected ContentBody::Matrix, got {other:?}"),
        };
        assert!(rows < 400, "some probes filtered: {rows}");
        assert!(rows > 0);
    }

    #[test]
    fn cluster_tools_produce_assignments() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[("k", "2"), ("linkage", "complete")]);
        let outputs = affy_cluster_samples().behavior.run(&inv).unwrap();
        let rows = match outputs[0].content.body() {
            cumulus_galaxy::ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert_eq!(rows.len(), 8);
        // The two groups land in different clusters.
        assert_eq!(rows[0][1], rows[1][1]);
        assert_ne!(rows[0][1], rows[7][1]);

        let input = bundle(&spec());
        let inv = invocation_for(&input, &[("k", "3")]);
        let outputs = affy_kmeans_genes().behavior.run(&inv).unwrap();
        let rows = match outputs[0].content.body() {
            cumulus_galaxy::ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert_eq!(rows.len(), 400);
    }

    #[test]
    fn ma_and_volcano_plots_render() {
        let input = bundle(&spec());
        let inv = invocation_for(&input, &[("alpha", "0.05")]);
        for tool in [affy_ma_plot(), affy_volcano_plot()] {
            let outputs = tool.behavior.run(&inv).unwrap();
            match outputs[0].content.body() {
                cumulus_galaxy::ContentBody::Svg(svg) => {
                    assert!(svg.contains("<circle"), "{} drew no points", tool.id)
                }
                other => panic!("expected ContentBody::Svg, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_input_kind_is_a_tool_error() {
        let text = Content::new(ContentBody::Text("hi".to_string()));
        let mut inputs = BTreeMap::new();
        inputs.insert("input".to_string(), &text);
        let inv = ToolInvocation {
            params: [("normalize", "yes"), ("adjust", "BH"), ("top", "10")]
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inputs,
            input_size: DataSize::ZERO,
        };
        let err = affy_differential_expression()
            .behavior
            .run(&inv)
            .unwrap_err();
        assert!(err.0.contains("expected an expression matrix"));
    }

    #[test]
    fn single_group_input_is_rejected() {
        let bundle = generate_cel_bundle(&spec(), &mut RngStream::derive(5, "x"));
        let only_g1 = matrix_to_content(bundle.matrix.select_cols(&[0, 1, 2, 3]));
        let mut inputs = BTreeMap::new();
        inputs.insert("input".to_string(), &only_g1);
        let inv = ToolInvocation {
            params: [("normalize", "yes"), ("adjust", "BH"), ("top", "10")]
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inputs,
            input_size: DataSize::ZERO,
        };
        let err = affy_differential_expression()
            .behavior
            .run(&inv)
            .unwrap_err();
        assert!(err.0.contains("2 groups"), "{}", err.0);
    }
}
