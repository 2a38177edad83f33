//! RNA-sequencing tools.
//!
//! Reads and annotations are exchanged as plain tables, mirroring the way
//! the R scripts consume BAM files plus UCSC feature tables:
//!
//! * a **reads table** has columns `chrom,start,end` (one aligned read per
//!   row);
//! * a **features table** has columns `transcript,chrom,start,end` (one
//!   exon per row);
//! * a **counts table** has columns `feature,<lib1>,<lib2>,…`.

use std::sync::Arc;

use cumulus_galaxy::{CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolError, ToolInvocation};

use crate::genomics::{FeatureIndex, Interval, Read, Transcript};
use crate::stats::counts::{cpm, filter_low_counts, log2_fold_change, two_sample_count_test};
use crate::stats::fdr::{adjust, Adjustment};
use crate::stats::order::ascending_order;
use crate::svg::{self, PlotPoint};

use super::{float_param, fmt, int_param, svg_output, table_input, table_output};

/// All sequencing tools.
pub fn tools() -> Vec<ToolDefinition> {
    vec![
        sequence_differential_expression(),
        sequence_counts_per_transcript(),
        sequence_coverage(),
        sequence_library_stats(),
        sequence_normalize_counts(),
        sequence_filter_low_counts(),
        sequence_ma_plot(),
        sequence_fold_change(),
    ]
}

fn out(name: &str, dtype: &str) -> OutputSpec {
    OutputSpec {
        name: name.to_string(),
        dtype: dtype.to_string(),
    }
}

/// Parse a reads table into `Read`s.
fn parse_reads(columns: &[String], rows: &[Vec<String>]) -> Result<Vec<Read>, ToolError> {
    let find = |name: &str| {
        columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| ToolError(format!("reads table missing column {name:?}")))
    };
    let (ci, si, ei) = (find("chrom")?, find("start")?, find("end")?);
    rows.iter()
        .map(|row| {
            let start: u64 = row[si]
                .parse()
                .map_err(|_| ToolError(format!("bad start {:?}", row[si])))?;
            let end: u64 = row[ei]
                .parse()
                .map_err(|_| ToolError(format!("bad end {:?}", row[ei])))?;
            if end <= start {
                return Err(ToolError(format!("empty read {start}..{end}")));
            }
            Ok(Read {
                span: Interval::new(&row[ci], start, end),
            })
        })
        .collect()
}

/// Parse a features table into transcripts.
fn parse_features(columns: &[String], rows: &[Vec<String>]) -> Result<Vec<Transcript>, ToolError> {
    let find = |name: &str| {
        columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| ToolError(format!("features table missing column {name:?}")))
    };
    let (ti, ci, si, ei) = (
        find("transcript")?,
        find("chrom")?,
        find("start")?,
        find("end")?,
    );
    let mut order: Vec<String> = Vec::new();
    let mut exons: std::collections::BTreeMap<String, Vec<Interval>> =
        std::collections::BTreeMap::new();
    for row in rows {
        let name = row[ti].clone();
        let start: u64 = row[si]
            .parse()
            .map_err(|_| ToolError(format!("bad start {:?}", row[si])))?;
        let end: u64 = row[ei]
            .parse()
            .map_err(|_| ToolError(format!("bad end {:?}", row[ei])))?;
        if end <= start {
            return Err(ToolError(format!("empty exon {start}..{end}")));
        }
        if !exons.contains_key(&name) {
            order.push(name.clone());
        }
        exons
            .entry(name)
            .or_default()
            .push(Interval::new(&row[ci], start, end));
    }
    Ok(order
        .into_iter()
        .map(|name| {
            let ex = exons.remove(&name).expect("inserted above");
            Transcript::new(&name, ex)
        })
        .collect())
}

/// Serialize reads into the table convention (for dataset creation).
pub fn reads_to_table(reads: &[Read]) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = vec!["chrom".to_string(), "start".to_string(), "end".to_string()];
    let rows = reads
        .iter()
        .map(|r| {
            vec![
                r.span.chrom.clone(),
                r.span.start.to_string(),
                r.span.end.to_string(),
            ]
        })
        .collect();
    (columns, rows)
}

/// Serialize transcripts into the features-table convention.
pub fn annotation_to_table(transcripts: &[Transcript]) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = vec![
        "transcript".to_string(),
        "chrom".to_string(),
        "start".to_string(),
        "end".to_string(),
    ];
    let mut rows = Vec::new();
    for t in transcripts {
        for e in &t.exons {
            rows.push(vec![
                t.name.clone(),
                e.chrom.clone(),
                e.start.to_string(),
                e.end.to_string(),
            ]);
        }
    }
    (columns, rows)
}

/// Parse a two-library counts table: `(features, counts1, counts2)`.
#[allow(clippy::type_complexity)]
fn parse_two_lib_counts(
    columns: &[String],
    rows: &[Vec<String>],
) -> Result<(Vec<String>, Vec<u64>, Vec<u64>), ToolError> {
    if columns.len() < 3 {
        return Err(ToolError(
            "counts table needs a feature column plus two libraries".to_string(),
        ));
    }
    let mut features = Vec::with_capacity(rows.len());
    let mut c1 = Vec::with_capacity(rows.len());
    let mut c2 = Vec::with_capacity(rows.len());
    for row in rows {
        features.push(row[0].clone());
        c1.push(
            row[1]
                .parse()
                .map_err(|_| ToolError(format!("bad count {:?}", row[1])))?,
        );
        c2.push(
            row[2]
                .parse()
                .map_err(|_| ToolError(format!("bad count {:?}", row[2])))?,
        );
    }
    Ok((features, c1, c2))
}

/// `sequenceCountsPerTranscript.R` — count reads per genomic feature.
fn sequence_counts_per_transcript() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceCountsPerTranscript".to_string(),
        name: "sequenceCountsPerTranscript.R".to_string(),
        version: "1.0".to_string(),
        description:
            "summarize the number of reads aligning to genomic features (UCSC-style table)"
                .to_string(),
        params: vec![
            ParamSpec::dataset("reads", "Aligned reads (BAM as table)"),
            ParamSpec::dataset("features", "Genomic features (UCSC table)"),
        ],
        outputs: vec![out("counts", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (rc, rr) = table_input(inv, "reads")?;
            let (fc, fr) = table_input(inv, "features")?;
            let reads = parse_reads(rc, rr)?;
            let features = parse_features(fc, fr)?;
            let index = FeatureIndex::build(features);
            let counts = index.count_reads(&reads);
            let rows: Vec<Vec<String>> = counts
                .iter()
                .map(|(name, c)| vec![name.clone(), c.to_string()])
                .collect();
            Ok(vec![table_output(
                "counts",
                "read counts per transcript",
                vec!["feature".to_string(), "count".to_string()],
                rows,
            )])
        }),
    }
}

/// `sequenceDifferentialExperssion.R` [sic] — "a two-sample test for
/// RNA-sequence differential expression" (Figure 5 keeps the paper's
/// original spelling in its title).
fn sequence_differential_expression() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceDifferentialExpression".to_string(),
        name: "sequenceDifferentialExperssion.R".to_string(),
        version: "1.0".to_string(),
        description: "two-sample test for RNA-sequence differential expression".to_string(),
        params: vec![
            ParamSpec::dataset("counts", "Counts table (feature, lib1, lib2)"),
            ParamSpec::select(
                "adjust",
                "P-value adjustment",
                &["BH", "holm", "bonferroni", "none"],
                "BH",
            ),
        ],
        outputs: vec![out("toptable", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "counts")?;
            let (features, c1, c2) = parse_two_lib_counts(cols, rows)?;
            let n1: u64 = c1.iter().sum();
            let n2: u64 = c2.iter().sum();
            if n1 == 0 || n2 == 0 {
                return Err(ToolError("a library has zero total counts".to_string()));
            }
            let method = Adjustment::parse(inv.param("adjust").unwrap_or("BH"))
                .ok_or_else(|| ToolError("unknown adjustment method".to_string()))?;
            let results: Vec<_> = features
                .iter()
                .zip(c1.iter().zip(&c2))
                .map(|(_, (&x1, &x2))| two_sample_count_test(x1, n1, x2, n2))
                .collect();
            let pvals: Vec<f64> = results.iter().map(|r| r.p).collect();
            let adj = adjust(&pvals, method);
            let order = ascending_order(adj.iter().copied()).expect("finite p");
            let table_rows: Vec<Vec<String>> = order
                .iter()
                .map(|&i| {
                    vec![
                        features[i].clone(),
                        c1[i].to_string(),
                        c2[i].to_string(),
                        fmt(results[i].log2_fc),
                        fmt(results[i].z),
                        fmt(results[i].p),
                        fmt(adj[i]),
                    ]
                })
                .collect();
            Ok(vec![table_output(
                "toptable",
                "differential expression (counts)",
                [
                    "feature",
                    "count1",
                    "count2",
                    "log2FC",
                    "z",
                    "P.Value",
                    "adj.P.Val",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                table_rows,
            )])
        }),
    }
}

/// Per-transcript coverage summary (reads × read length / exonic length).
fn sequence_coverage() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceCoverage".to_string(),
        name: "sequenceCoverage.R".to_string(),
        version: "1.0".to_string(),
        description: "mean fold-coverage per transcript".to_string(),
        params: vec![
            ParamSpec::dataset("reads", "Aligned reads"),
            ParamSpec::dataset("features", "Genomic features"),
        ],
        outputs: vec![out("coverage", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (rc, rr) = table_input(inv, "reads")?;
            let (fc, fr) = table_input(inv, "features")?;
            let reads = parse_reads(rc, rr)?;
            let features = parse_features(fc, fr)?;
            let mean_read_len = if reads.is_empty() {
                0.0
            } else {
                reads.iter().map(|r| r.span.len() as f64).sum::<f64>() / reads.len() as f64
            };
            let index = FeatureIndex::build(features.clone());
            let counts = index.count_reads(&reads);
            let rows: Vec<Vec<String>> = counts
                .iter()
                .zip(&features)
                .map(|((name, c), t)| {
                    let len = t.exonic_length().max(1) as f64;
                    vec![
                        name.clone(),
                        c.to_string(),
                        t.exonic_length().to_string(),
                        fmt(*c as f64 * mean_read_len / len),
                    ]
                })
                .collect();
            Ok(vec![table_output(
                "coverage",
                "transcript coverage",
                ["feature", "reads", "exonic_bp", "mean_coverage"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                rows,
            )])
        }),
    }
}

/// Library-level summary statistics.
fn sequence_library_stats() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceLibraryStats".to_string(),
        name: "sequenceLibraryStats.R".to_string(),
        version: "1.0".to_string(),
        description: "library size, read-length and duplication summary".to_string(),
        params: vec![ParamSpec::dataset("reads", "Aligned reads")],
        outputs: vec![out("stats", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (rc, rr) = table_input(inv, "reads")?;
            let reads = parse_reads(rc, rr)?;
            let n = reads.len();
            let mean_len = if n == 0 {
                0.0
            } else {
                reads.iter().map(|r| r.span.len() as f64).sum::<f64>() / n as f64
            };
            let mut positions: Vec<(String, u64)> = reads
                .iter()
                .map(|r| (r.span.chrom.clone(), r.span.start))
                .collect();
            positions.sort();
            positions.dedup();
            let duplication = if n == 0 {
                0.0
            } else {
                1.0 - positions.len() as f64 / n as f64
            };
            let rows = vec![
                vec!["total_reads".to_string(), n.to_string()],
                vec!["mean_read_length".to_string(), fmt(mean_len)],
                vec![
                    "distinct_start_positions".to_string(),
                    positions.len().to_string(),
                ],
                vec!["duplication_rate".to_string(), fmt(duplication)],
            ];
            Ok(vec![table_output(
                "stats",
                "library statistics",
                vec!["metric".to_string(), "value".to_string()],
                rows,
            )])
        }),
    }
}

/// CPM normalization of a counts table.
fn sequence_normalize_counts() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceNormalizeCounts".to_string(),
        name: "sequenceNormalizeCounts.R".to_string(),
        version: "1.0".to_string(),
        description: "counts-per-million normalization of a counts table".to_string(),
        params: vec![ParamSpec::dataset("counts", "Counts table")],
        outputs: vec![out("cpm", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "counts")?;
            let (features, c1, c2) = parse_two_lib_counts(cols, rows)?;
            let n1: u64 = c1.iter().sum::<u64>().max(1);
            let n2: u64 = c2.iter().sum::<u64>().max(1);
            let out_rows: Vec<Vec<String>> = features
                .iter()
                .enumerate()
                .map(|(i, f)| vec![f.clone(), fmt(cpm(c1[i], n1)), fmt(cpm(c2[i], n2))])
                .collect();
            Ok(vec![table_output(
                "cpm",
                "CPM-normalized counts",
                vec![
                    "feature".to_string(),
                    "cpm1".to_string(),
                    "cpm2".to_string(),
                ],
                out_rows,
            )])
        }),
    }
}

/// Remove features below a CPM floor.
fn sequence_filter_low_counts() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceFilterLowCounts".to_string(),
        name: "sequenceFilterLowCounts.R".to_string(),
        version: "1.0".to_string(),
        description: "drop features below a CPM threshold in too many libraries".to_string(),
        params: vec![
            ParamSpec::dataset("counts", "Counts table"),
            ParamSpec::float("min_cpm", "Minimum CPM", 1.0),
            ParamSpec::integer(
                "min_samples",
                "In at least this many libraries",
                2,
                Some(1),
                Some(2),
            ),
        ],
        outputs: vec![out("filtered", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "counts")?;
            let (features, c1, c2) = parse_two_lib_counts(cols, rows)?;
            let min_cpm = float_param(inv, "min_cpm")?;
            let min_samples = int_param(inv, "min_samples")? as usize;
            let libs = [c1.iter().sum::<u64>().max(1), c2.iter().sum::<u64>().max(1)];
            let per_feature: Vec<Vec<u64>> =
                c1.iter().zip(&c2).map(|(&a, &b)| vec![a, b]).collect();
            let kept = filter_low_counts(&per_feature, &libs, min_cpm, min_samples);
            let out_rows: Vec<Vec<String>> = kept
                .iter()
                .map(|&i| vec![features[i].clone(), c1[i].to_string(), c2[i].to_string()])
                .collect();
            Ok(vec![table_output(
                "filtered",
                &format!(
                    "filtered counts ({} of {} kept)",
                    kept.len(),
                    features.len()
                ),
                cols.to_vec(),
                out_rows,
            )])
        }),
    }
}

/// MA plot of a two-library counts table.
fn sequence_ma_plot() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceMAPlot".to_string(),
        name: "sequenceMAPlot.R".to_string(),
        version: "1.0".to_string(),
        description: "MA plot of two count libraries".to_string(),
        params: vec![ParamSpec::dataset("counts", "Counts table")],
        outputs: vec![out("plot", "svg")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "counts")?;
            let (_features, c1, c2) = parse_two_lib_counts(cols, rows)?;
            let n1: u64 = c1.iter().sum::<u64>().max(1);
            let n2: u64 = c2.iter().sum::<u64>().max(1);
            let points: Vec<PlotPoint> = c1
                .iter()
                .zip(&c2)
                .map(|(&a, &b)| {
                    let m = log2_fold_change(b, n2, a, n1);
                    let avg = ((cpm(a, n1) + 0.5).log2() + (cpm(b, n2) + 0.5).log2()) / 2.0;
                    PlotPoint {
                        x: avg,
                        y: m,
                        highlight: m.abs() > 1.0,
                    }
                })
                .collect();
            Ok(vec![svg_output(
                "plot",
                "MA plot (counts)",
                svg::scatter_plot(
                    "sequenceMAPlot",
                    "A (mean log2 CPM)",
                    "M (log2 FC)",
                    &points,
                ),
            )])
        }),
    }
}

/// Per-feature fold-change table.
fn sequence_fold_change() -> ToolDefinition {
    ToolDefinition {
        id: "crdata_sequenceFoldChange".to_string(),
        name: "sequenceFoldChange.R".to_string(),
        version: "1.0".to_string(),
        description: "log2 fold change per feature between two libraries".to_string(),
        params: vec![ParamSpec::dataset("counts", "Counts table")],
        outputs: vec![out("fc", "tabular")],
        cost: CostModel::CRDATA_R,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let (cols, rows) = table_input(inv, "counts")?;
            let (features, c1, c2) = parse_two_lib_counts(cols, rows)?;
            let n1: u64 = c1.iter().sum::<u64>().max(1);
            let n2: u64 = c2.iter().sum::<u64>().max(1);
            let out_rows: Vec<Vec<String>> = features
                .iter()
                .enumerate()
                .map(|(i, f)| vec![f.clone(), fmt(log2_fold_change(c2[i], n2, c1[i], n1))])
                .collect();
            Ok(vec![table_output(
                "fc",
                "log2 fold changes",
                vec!["feature".to_string(), "log2FC".to_string()],
                out_rows,
            )])
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate_read_set, ReadSetSpec};
    use cumulus_galaxy::{Content, ContentBody};
    use cumulus_net::DataSize;
    use cumulus_simkit::rng::RngStream;

    fn read_set() -> crate::datagen::ReadSet {
        generate_read_set(&ReadSetSpec::small(), &mut RngStream::derive(3, "seq-test"))
    }

    fn table(cols: Vec<String>, rows: Vec<Vec<String>>) -> Content {
        Content::new(ContentBody::Table {
            columns: cols,
            rows,
        })
    }

    fn counts_table(rs: &crate::datagen::ReadSet) -> Content {
        let index = FeatureIndex::build(rs.annotation.clone());
        let c1 = index.count_reads(&rs.library1);
        let c2 = index.count_reads(&rs.library2);
        let rows: Vec<Vec<String>> = c1
            .iter()
            .zip(&c2)
            .map(|((name, a), (_, b))| vec![name.clone(), a.to_string(), b.to_string()])
            .collect();
        table(
            vec![
                "feature".to_string(),
                "lib1".to_string(),
                "lib2".to_string(),
            ],
            rows,
        )
    }

    fn inv<'a>(inputs: Vec<(&str, &'a Content)>, params: &[(&str, &str)]) -> ToolInvocation<'a> {
        ToolInvocation {
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inputs: inputs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            input_size: DataSize::from_mb(1),
        }
    }

    #[test]
    fn counts_per_transcript_counts_real_reads() {
        let rs = read_set();
        let (rc, rr) = reads_to_table(&rs.library1);
        let (fc, fr) = annotation_to_table(&rs.annotation);
        let (reads, features) = (table(rc, rr), table(fc, fr));
        let invocation = inv(vec![("reads", &reads), ("features", &features)], &[]);
        let outputs = sequence_counts_per_transcript()
            .behavior
            .run(&invocation)
            .unwrap();
        let rows = match outputs[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert_eq!(rows.len(), rs.annotation.len());
        let total: u64 = rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        // Every read lands in some transcript (generator places reads in
        // exons).
        assert_eq!(total, rs.library1.len() as u64);
    }

    #[test]
    fn differential_expression_finds_planted_transcripts() {
        let rs = read_set();
        let counts = counts_table(&rs);
        let invocation = inv(vec![("counts", &counts)], &[("adjust", "BH")]);
        let outputs = sequence_differential_expression()
            .behavior
            .run(&invocation)
            .unwrap();
        let rows = match outputs[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        // The planted transcripts dominate the top of the table.
        let top: Vec<&str> = rows[..rs.planted.len()]
            .iter()
            .map(|r| r[0].as_str())
            .collect();
        let hits = rs
            .planted
            .iter()
            .filter(|p| top.contains(&p.as_str()))
            .count();
        assert!(
            hits >= rs.planted.len() - 2,
            "only {hits}/{} planted transcripts at top: {top:?}",
            rs.planted.len()
        );
        // And they are significant.
        let p: f64 = rows[0][6].parse().unwrap();
        assert!(p < 0.01);
    }

    #[test]
    fn coverage_and_library_stats_run() {
        let rs = read_set();
        let (rc, rr) = reads_to_table(&rs.library1);
        let (fc, fr) = annotation_to_table(&rs.annotation);
        let (reads, features) = (table(rc, rr), table(fc, fr));
        let invocation = inv(vec![("reads", &reads), ("features", &features)], &[]);
        let cov = sequence_coverage().behavior.run(&invocation).unwrap();
        let rows = match cov[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert_eq!(rows.len(), rs.annotation.len());

        let invocation = inv(vec![("reads", &reads)], &[]);
        let stats = sequence_library_stats().behavior.run(&invocation).unwrap();
        let rows = match stats[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert_eq!(rows[0][0], "total_reads");
        assert_eq!(rows[0][1], rs.library1.len().to_string());
        let dup: f64 = rows[3][1].parse().unwrap();
        assert!((0.0..1.0).contains(&dup));
    }

    #[test]
    fn normalization_filter_and_fc_pipeline() {
        let rs = read_set();
        let counts = counts_table(&rs);
        let norm = sequence_normalize_counts()
            .behavior
            .run(&inv(vec![("counts", &counts)], &[]))
            .unwrap();
        let rows = match norm[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        // CPM columns sum to ~1e6 each.
        let sum1: f64 = rows.iter().map(|r| r[1].parse::<f64>().unwrap()).sum();
        assert!((sum1 - 1e6).abs() < 1e6 * 0.01, "sum1={sum1}");

        let filtered = sequence_filter_low_counts()
            .behavior
            .run(&inv(
                vec![("counts", &counts)],
                &[("min_cpm", "8000.0"), ("min_samples", "2")],
            ))
            .unwrap();
        let frows = match filtered[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        assert!(frows.len() < rows.len(), "filter dropped something");
        assert!(!frows.is_empty());

        let fc = sequence_fold_change()
            .behavior
            .run(&inv(vec![("counts", &counts)], &[]))
            .unwrap();
        let fc_rows = match fc[0].content.body() {
            ContentBody::Table { rows, .. } => rows,
            other => panic!("expected ContentBody::Table, got {other:?}"),
        };
        // Planted transcripts (TX0000..) have positive log2FC.
        let planted_fc: f64 = fc_rows.iter().find(|r| r[0] == rs.planted[0]).unwrap()[1]
            .parse()
            .unwrap();
        assert!(planted_fc > 0.8, "planted FC {planted_fc}");

        let ma = sequence_ma_plot()
            .behavior
            .run(&inv(vec![("counts", &counts)], &[]))
            .unwrap();
        assert!(matches!(ma[0].content.body(), ContentBody::Svg(s) if s.contains("<circle")));
    }

    #[test]
    fn malformed_tables_error_cleanly() {
        let bad_reads = table(
            vec!["chrom".to_string(), "start".to_string()],
            vec![vec!["chr1".to_string(), "10".to_string()]],
        );
        let (fc, fr) = annotation_to_table(&read_set().annotation);
        let features = table(fc, fr);
        let invocation = inv(vec![("reads", &bad_reads), ("features", &features)], &[]);
        let err = sequence_counts_per_transcript()
            .behavior
            .run(&invocation)
            .unwrap_err();
        assert!(err.0.contains("missing column"));

        let empty_counts = table(
            vec!["feature".to_string(), "a".to_string(), "b".to_string()],
            vec![vec!["f".to_string(), "0".to_string(), "0".to_string()]],
        );
        let err = sequence_differential_expression()
            .behavior
            .run(&inv(vec![("counts", &empty_counts)], &[("adjust", "BH")]))
            .unwrap_err();
        assert!(err.0.contains("zero total counts"));
    }
}
