//! Golden outputs of the CRData tools.
//!
//! Every expression tool runs on seeded `four_cel_samples` and
//! `affy_cel_samples` bundles (seeds 0–3) over each declared `adjust` ×
//! `normalize` combination, and the table and matrix tools whose kernels
//! share code with them run on seeded tables and matrices, as does
//! `sequenceDifferentialExpression`, whose top table shares the p-value
//! order, on seeded counts tables. Each output's
//! [`Content::content_id`] must equal the digest recorded in [`GOLDEN`],
//! so a rewrite of a statistics kernel, the SVG writer or the tool
//! plumbing has to leave every byte of every output alone.
//!
//! `crdata_affyPCA` runs on `four_cel_samples` bundles cut to
//! [`PCA_PROBES`] probes: its dense power iteration over the probe × probe
//! covariance takes seconds per run on 2000 probes and tens of seconds on
//! 4000, and it shares no kernel with the other tools beyond the input
//! plumbing.

use std::collections::BTreeMap;

use cumulus_crdata::datagen::{generate_cel_bundle, CelBundleSpec};
use cumulus_crdata::tools::affy;
use cumulus_crdata::{catalog, matrix_to_content, LabelledMatrix};
use cumulus_galaxy::{Content, ParamKind, ToolDefinition, ToolInvocation};
use cumulus_net::DataSize;
use cumulus_simkit::rng::RngStream;

const SEEDS: [u64; 4] = [0, 1, 2, 3];

/// Probe count of the bundles `affyPCA` runs on.
const PCA_PROBES: usize = 400;

/// The select parameters whose every declared option is exercised.
const SWEPT: [&str; 3] = ["adjust", "normalize", "method"];

fn tool(id: &str) -> ToolDefinition {
    catalog()
        .into_iter()
        .map(|(_, t)| t)
        .find(|t| t.id == id)
        .unwrap_or_else(|| panic!("no tool {id}"))
}

/// Every binding of the tool's swept select parameters, in declaration
/// order; one empty binding when it declares none.
fn sweeps(tool: &ToolDefinition) -> Vec<Vec<(String, String)>> {
    let mut combos: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for p in &tool.params {
        let ParamKind::Select { options } = &p.kind else {
            continue;
        };
        if !SWEPT.contains(&p.name.as_str()) {
            continue;
        }
        combos = combos
            .into_iter()
            .flat_map(|c| {
                options.iter().map(move |o| {
                    let mut c = c.clone();
                    c.push((p.name.clone(), o.clone()));
                    c
                })
            })
            .collect();
    }
    combos
}

/// Run `tool` on `input` (bound to its dataset parameter) once per sweep
/// and record `(case, digest)` for every output.
fn run_all(label: &str, tool: &ToolDefinition, input: &Content, out: &mut Vec<(String, String)>) {
    let dataset = tool
        .params
        .iter()
        .find(|p| matches!(p.kind, ParamKind::DatasetInput))
        .map_or("input", |p| p.name.as_str());
    for sweep in sweeps(tool) {
        let provided: BTreeMap<String, String> = sweep
            .iter()
            .cloned()
            .chain([(dataset.to_string(), "golden".to_string())])
            .collect();
        // The server hands a behavior value parameters only; the dataset
        // arrives through `inputs`.
        let mut params = tool.resolve_params(&provided).unwrap();
        params.remove(dataset);
        let inv = ToolInvocation {
            params,
            inputs: [(dataset.to_string(), input)].into_iter().collect(),
            input_size: DataSize::from_kb(10),
        };
        let outputs = tool
            .behavior
            .run(&inv)
            .unwrap_or_else(|e| panic!("{label} {} {sweep:?}: {e}", tool.id));
        let returned: Vec<&str> = outputs.iter().map(|o| o.name.as_str()).collect();
        let declared: Vec<&str> = tool.outputs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(returned, declared, "{label} {}: outputs", tool.id);
        let binding = sweep
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        for o in outputs {
            out.push((
                format!("{label}/{}[{binding}]/{}", tool.id, o.name),
                o.content.content_id().hex(),
            ));
        }
    }
}

/// A seeded table with the numeric columns the table tools read. Values
/// are rounded to two decimals so ties (and a `-0` cell) occur.
fn table(seed: u64) -> Content {
    let mut rng = RngStream::derive(seed, "golden-table");
    let columns = ["x", "y", "value", "P.Value", "label"];
    let rows = (0..300)
        .map(|r| {
            let x = (rng.normal(0.0, 2.0) * 100.0).round() / 100.0;
            let y = (x * 1.7 + rng.normal(0.0, 1.0) * 100.0).round() / 100.0;
            let value = if r == 7 {
                -0.0
            } else {
                (rng.normal(5.0, 3.0) * 100.0).round() / 100.0
            };
            let p = if r % 11 == 0 {
                0.05
            } else {
                (rng.uniform().powi(3) * 1e4).round() / 1e4
            };
            vec![
                format!("{x}"),
                format!("{y}"),
                format!("{value}"),
                format!("{p}"),
                format!("row{r}"),
            ]
        })
        .collect();
    Content::Table {
        columns: columns.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

/// A seeded matrix with many tied cells for the column-ranking kernel.
fn tied_matrix(seed: u64) -> Content {
    let mut rng = RngStream::derive(seed, "golden-matrix");
    let (rows, cols) = (500, 6);
    let values = (0..rows * cols)
        .map(|i| match i % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => (rng.normal(8.0, 2.0) * 4.0).round() / 4.0,
        })
        .collect();
    matrix_to_content(LabelledMatrix::new(
        (0..rows).map(|r| format!("p{r}")).collect(),
        (0..cols)
            .map(|c| format!("g{}_{}", 1 + c % 2, c / 2))
            .collect(),
        values,
    ))
}

/// A seeded two-library counts table. Every ninth feature has the same
/// counts in both libraries, so p-values and adjusted p-values tie.
fn counts(seed: u64) -> Content {
    let mut rng = RngStream::derive(seed, "golden-counts");
    let rows = (0..400)
        .map(|r| {
            let (c1, c2) = if r % 9 == 0 {
                (40, 40)
            } else {
                let base = (rng.uniform() * 200.0).floor() as u64;
                let fold = if r % 17 == 0 { 6 } else { 1 };
                (base * fold, (rng.uniform() * 200.0).floor() as u64)
            };
            vec![format!("f{r}"), c1.to_string(), c2.to_string()]
        })
        .collect();
    Content::Table {
        columns: ["feature", "lib1", "lib2"].map(String::from).to_vec(),
        rows,
    }
}

/// Every expression tool but `affyPCA` on seeded bundles of one shape.
fn bundles(shape: &str, spec: &CelBundleSpec) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let bundle = generate_cel_bundle(spec, &mut RngStream::derive(seed, "golden"));
        let input = matrix_to_content(bundle.matrix);
        for t in affy::tools() {
            if t.id != "crdata_affyPCA" {
                run_all(&format!("{shape}{seed}"), &t, &input, &mut out);
            }
        }
    }
    out
}

/// Compare one group's outputs (cases whose label, digits stripped, is
/// `group`) with the recorded digests; on a mismatch, print the group's
/// actual listing in the form [`GOLDEN`] uses.
fn check(group: &str, got: Vec<(String, String)>) {
    let want: Vec<(String, String)> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(' '))
        .filter(|(case, _)| {
            let label = case.split('/').next().unwrap_or("");
            label.trim_end_matches(|c: char| c.is_ascii_digit()) == group
        })
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if got != want {
        let listing: String = got.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        let differing: Vec<&String> = got
            .iter()
            .zip(&want)
            .filter(|(g, w)| g != w)
            .map(|(g, _)| &g.0)
            .collect();
        panic!(
            "{group}: {} outputs, {} recorded; differing cases: {differing:?}\nactual digests:\n{listing}",
            got.len(),
            want.len()
        );
    }
}

#[test]
fn four_cel_bundle_outputs_match_their_digests() {
    check("four", bundles("four", &CelBundleSpec::four_cel_samples()));
}

#[test]
fn affy_cel_bundle_outputs_match_their_digests() {
    check("affy", bundles("affy", &CelBundleSpec::affy_cel_samples()));
}

#[test]
fn pca_outputs_match_their_digests() {
    let spec = CelBundleSpec {
        probes: PCA_PROBES,
        ..CelBundleSpec::four_cel_samples()
    };
    let pca = affy::tools()
        .into_iter()
        .find(|t| t.id == "crdata_affyPCA")
        .unwrap();
    let mut out = Vec::new();
    for seed in SEEDS {
        let bundle = generate_cel_bundle(&spec, &mut RngStream::derive(seed, "golden"));
        run_all(
            &format!("pca{seed}"),
            &pca,
            &matrix_to_content(bundle.matrix),
            &mut out,
        );
    }
    check("pca", out);
}

#[test]
fn table_and_matrix_tool_outputs_match_their_digests() {
    let mut tables = Vec::new();
    let mut matrices = Vec::new();
    for seed in SEEDS {
        let t = table(seed);
        for id in [
            "crdata_descriptiveStatistics",
            "crdata_multipleTestingCorrection",
            "crdata_histogramPlot",
            "crdata_scatterPlot",
        ] {
            run_all(&format!("table{seed}"), &tool(id), &t, &mut tables);
        }
        run_all(
            &format!("matrix{seed}"),
            &tool("crdata_quantileNormalize"),
            &tied_matrix(seed),
            &mut matrices,
        );
    }
    check("table", tables);
    check("matrix", matrices);
}

#[test]
fn counts_tool_outputs_match_their_digests() {
    let mut out = Vec::new();
    for seed in SEEDS {
        run_all(
            &format!("counts{seed}"),
            &tool("crdata_sequenceDifferentialExpression"),
            &counts(seed),
            &mut out,
        );
    }
    check("counts", out);
}

/// `<case> <content-id hex>`, one output a line, recorded before the
/// kernels were rewritten.
const GOLDEN: &str = "
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable 6976814f927d227f
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot 619a0c9451a1a4ff
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable 281f7202167a139f
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot 619a0c9451a1a4ff
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable 281f7202167a139f
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot 619a0c9451a1a4ff
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable effb3217f59f29e6
four0/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot 72f06f81a8986d77
four0/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable 08e5fa55cc361050
four0/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot 1a266d21d3e98349
four0/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable 96cbe8f9df4d7bb8
four0/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 1a266d21d3e98349
four0/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 96cbe8f9df4d7bb8
four0/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot 1a266d21d3e98349
four0/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable 0ccf309552c5c436
four0/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot ab834e57d4169c89
four0/crdata_affyClassify[method=centroid]/assignments 7925ce654d3a1dca
four0/crdata_affyClassify[method=knn]/assignments c3e208e3ba8bdc82
four0/crdata_affyNormalize[]/normalized 6d7c2977117a9013
four0/crdata_affyQC[]/qc 99b914d40fd3f3d2
four0/crdata_heatmap_plot_demo[]/heatmap 823da1493fe126f1
four0/crdata_heatmap_plot_demo[]/order 99663c579c87f7c7
four0/crdata_affyBoxplot[]/plot fbfa80ff7388c48a
four0/crdata_affyMAPlot[]/plot 5bbc6aa8348ab468
four0/crdata_affyVolcanoPlot[]/plot a3828c5185dc3590
four0/crdata_affyCorrelationMatrix[]/correlations 969a649536a8f105
four0/crdata_affyGeneFilter[]/filtered 2ff627b9e432e66d
four0/crdata_affyClusterSamples[]/clusters 933e25cea2129a31
four0/crdata_affyKMeansGenes[]/clusters 23e9e3a60a2a9bca
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable 3819774b1f19333f
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot 9007846c977d8270
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable 350a169770e1ad43
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot 9007846c977d8270
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable 350a169770e1ad43
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot 9007846c977d8270
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable cb2922b84e47dc75
four1/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot 7eccd6dcbca07498
four1/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable c1bd73659179c712
four1/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot 7c89f7d5d85737da
four1/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable 6a1214bdd57f931a
four1/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 7c89f7d5d85737da
four1/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 6a1214bdd57f931a
four1/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot 7c89f7d5d85737da
four1/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable 4f3fb0204a49d18f
four1/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot 35ffb350f97fdf3a
four1/crdata_affyClassify[method=centroid]/assignments 691e9b53bdce980a
four1/crdata_affyClassify[method=knn]/assignments c3e208e3ba8bdc82
four1/crdata_affyNormalize[]/normalized f24517607242e19f
four1/crdata_affyQC[]/qc 80a5a54db23f2dc3
four1/crdata_heatmap_plot_demo[]/heatmap a157e5c54afdc1c4
four1/crdata_heatmap_plot_demo[]/order 568e0adb58e749a0
four1/crdata_affyBoxplot[]/plot 71b6af3314b2efbb
four1/crdata_affyMAPlot[]/plot ec36c68206e9fa4f
four1/crdata_affyVolcanoPlot[]/plot 8ad9f0096823017b
four1/crdata_affyCorrelationMatrix[]/correlations 197d2a81839a3c69
four1/crdata_affyGeneFilter[]/filtered 3a430e165de6d3d3
four1/crdata_affyClusterSamples[]/clusters 933e25cea2129a31
four1/crdata_affyKMeansGenes[]/clusters aa2226d889f9ab39
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable c85a464099707d2a
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot 6450d2d59f924c00
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable c85a464099707d2a
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot 6450d2d59f924c00
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable c85a464099707d2a
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot 6450d2d59f924c00
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable 577c28fe6747a3ac
four2/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot 4a6aeb11b6457b28
four2/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable ba9cc5aeb59ac918
four2/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot 42c3dac38f6f8279
four2/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable 4fd1f584322c1ce2
four2/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 42c3dac38f6f8279
four2/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 4fd1f584322c1ce2
four2/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot 42c3dac38f6f8279
four2/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable 55c2dfa084b6a1a3
four2/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot 1407d2774180c799
four2/crdata_affyClassify[method=centroid]/assignments 7991f9b0fb43ee86
four2/crdata_affyClassify[method=knn]/assignments c3e208e3ba8bdc82
four2/crdata_affyNormalize[]/normalized 72024f58c3582cc3
four2/crdata_affyQC[]/qc b8fe979c64f9d260
four2/crdata_heatmap_plot_demo[]/heatmap de8c389ac9b2a104
four2/crdata_heatmap_plot_demo[]/order 86693d6be59bbf48
four2/crdata_affyBoxplot[]/plot 568f2d728f79cec3
four2/crdata_affyMAPlot[]/plot f1fde8670a7b367f
four2/crdata_affyVolcanoPlot[]/plot 262124a759e281a9
four2/crdata_affyCorrelationMatrix[]/correlations 06af3fc156f2b7e9
four2/crdata_affyGeneFilter[]/filtered a6f7974af36748b0
four2/crdata_affyClusterSamples[]/clusters 933e25cea2129a31
four2/crdata_affyKMeansGenes[]/clusters c4eb4d46006b83c8
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable 56afc38c1cec4857
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot de0dfab3a0721fe2
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable ffcd6b99a1f02645
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot de0dfab3a0721fe2
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable ffcd6b99a1f02645
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot de0dfab3a0721fe2
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable 4cecdfa104adbf10
four3/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot b521693def24c6d2
four3/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable 1a719df6d8154f6d
four3/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot 3395024d9a1ecfd2
four3/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable 08ae3a8cc9531e88
four3/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 3395024d9a1ecfd2
four3/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 08ae3a8cc9531e88
four3/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot 3395024d9a1ecfd2
four3/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable 817ab08c6656eccc
four3/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot 516c3c8b46f70f62
four3/crdata_affyClassify[method=centroid]/assignments 7cd11c62a7e42832
four3/crdata_affyClassify[method=knn]/assignments c3e208e3ba8bdc82
four3/crdata_affyNormalize[]/normalized d7762cd3ca6e4e77
four3/crdata_affyQC[]/qc b81ff2941a2ab03b
four3/crdata_heatmap_plot_demo[]/heatmap 33b9d06ee96d7fb3
four3/crdata_heatmap_plot_demo[]/order 75738c5778b177cb
four3/crdata_affyBoxplot[]/plot 710a71a068d6d4ca
four3/crdata_affyMAPlot[]/plot af58ba2a5d5a1f8a
four3/crdata_affyVolcanoPlot[]/plot 734a9205ab5de44f
four3/crdata_affyCorrelationMatrix[]/correlations 4c8b41035163ce51
four3/crdata_affyGeneFilter[]/filtered 1e89da8f163afe85
four3/crdata_affyClusterSamples[]/clusters 933e25cea2129a31
four3/crdata_affyKMeansGenes[]/clusters 2da4c73e09579bc1
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable e2b319a193b5f577
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot fecb1480844e80f8
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable 72564d640e01297c
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot dfecd14a0e4e2ae8
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable 45e48dd71c22bf15
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot dfecd14a0e4e2ae8
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable 33a7d3d03ac24316
affy0/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot abb2f48613bf6a40
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable 8a3ec2fca7085288
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot 5cc84698d2588e75
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable 3d2eca3fd371d2d0
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot b22dbece09341485
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 9a239f02d1ecd48a
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot b22dbece09341485
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable ccc01c6c7dbacd01
affy0/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot 761c6f653049da6d
affy0/crdata_affyClassify[method=centroid]/assignments 89c6601ec809eb2e
affy0/crdata_affyClassify[method=knn]/assignments 4ad3a08922898f46
affy0/crdata_affyNormalize[]/normalized a8e1db582a3e80f0
affy0/crdata_affyQC[]/qc 259be878f9be65a4
affy0/crdata_heatmap_plot_demo[]/heatmap 41ca1c599a00878a
affy0/crdata_heatmap_plot_demo[]/order 1209ae550b4ace84
affy0/crdata_affyBoxplot[]/plot 2fbe7084e3e7a6b7
affy0/crdata_affyMAPlot[]/plot a36e2ff9d3ab4b55
affy0/crdata_affyVolcanoPlot[]/plot a7cd6aabdffba31f
affy0/crdata_affyCorrelationMatrix[]/correlations 99fb5e401e8ed349
affy0/crdata_affyGeneFilter[]/filtered 8edd99a51970cb91
affy0/crdata_affyClusterSamples[]/clusters 92b55dd1ccdecd2d
affy0/crdata_affyKMeansGenes[]/clusters faf72f7f5ee3396b
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable a4c30ae014487605
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot 73eec2f61d54af5e
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable 3cc6d76ec2020711
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot c3169d0d6f1b8e06
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable fe206bc1c140af3e
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot c3169d0d6f1b8e06
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable 75db3aba6914cb8c
affy1/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot 8bd1a1a0035d656e
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable 87bac966f86489bd
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot a00cc06d02784df0
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable 18490141164c59f6
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 7fc7a412aba55f30
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 3be610e49da2b2f1
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot 7fc7a412aba55f30
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable a9041a42a4fc5857
affy1/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot d7143e29a56570f0
affy1/crdata_affyClassify[method=centroid]/assignments 95699653f4910bdb
affy1/crdata_affyClassify[method=knn]/assignments 4ad3a08922898f46
affy1/crdata_affyNormalize[]/normalized 624b31d5ed80a8e4
affy1/crdata_affyQC[]/qc 151aa25278074855
affy1/crdata_heatmap_plot_demo[]/heatmap db628cf308d6c651
affy1/crdata_heatmap_plot_demo[]/order c9c446c1da0ee0ef
affy1/crdata_affyBoxplot[]/plot 56dd6ee6990a6281
affy1/crdata_affyMAPlot[]/plot 4bdba18e172dfdb3
affy1/crdata_affyVolcanoPlot[]/plot 404ef51298ae8771
affy1/crdata_affyCorrelationMatrix[]/correlations 0223ea70ff0c93a1
affy1/crdata_affyGeneFilter[]/filtered 5bd25591ae5683b3
affy1/crdata_affyClusterSamples[]/clusters 92b55dd1ccdecd2d
affy1/crdata_affyKMeansGenes[]/clusters eed970e28cdc646d
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable 4c0fca2dab671b6e
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot 6867f511e72f26e4
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable 6d6dd70f912d0cf8
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot 96033f97ecec72c4
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable d4340548cf59d848
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot 96033f97ecec72c4
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable 841be2c6c1ec8403
affy2/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot 474e2edfe5c0bb94
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable c2dfa4a6f8a6491e
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot f067d61968078896
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable d14ed40bcd16f51f
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 20e1ab8f5398d216
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 9c9c75a8c708a5d7
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot 20e1ab8f5398d216
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable 3712fa6f62694980
affy2/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot 4a4a3ca32778d896
affy2/crdata_affyClassify[method=centroid]/assignments 9e25c8bf9bcdf27b
affy2/crdata_affyClassify[method=knn]/assignments 4ad3a08922898f46
affy2/crdata_affyNormalize[]/normalized df66ceb0021e3b94
affy2/crdata_affyQC[]/qc 15886f95337801d7
affy2/crdata_heatmap_plot_demo[]/heatmap 79f8fa31e5dbfebe
affy2/crdata_heatmap_plot_demo[]/order 0b2edd4cae5f9a30
affy2/crdata_affyBoxplot[]/plot 72bc2f2bb5b73691
affy2/crdata_affyMAPlot[]/plot e9f79e4662e915e2
affy2/crdata_affyVolcanoPlot[]/plot 120f78c73f412b31
affy2/crdata_affyCorrelationMatrix[]/correlations f55d51c453729005
affy2/crdata_affyGeneFilter[]/filtered 04d6b0a7e58a57b7
affy2/crdata_affyClusterSamples[]/clusters 92b55dd1ccdecd2d
affy2/crdata_affyKMeansGenes[]/clusters b8ae967c4f89e149
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/toptable 9b6b6b314a7ce12a
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=BH]/plot 5a17043db5ec4927
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/toptable 45eff2cd25d2b8e2
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=holm]/plot f8d89e71902c5b97
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/toptable e8e88131d9e037fe
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=bonferroni]/plot f8d89e71902c5b97
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/toptable d041b5120d9c6799
affy3/crdata_affyDifferentialExpression[normalize=yes,adjust=none]/plot e06f81a139e3959f
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/toptable 2c166f0a5eae2f66
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=BH]/plot 90e2024176a190fa
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/toptable b7a24df39867dd0a
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=holm]/plot 21111de66fca8fc2
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/toptable 5a711262d0ba3b0d
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=bonferroni]/plot e8695adfd0e6d762
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=none]/toptable 166c958bd3e92853
affy3/crdata_affyDifferentialExpression[normalize=no,adjust=none]/plot 8a8525c20f00e0ba
affy3/crdata_affyClassify[method=centroid]/assignments 64c4bf5add8fd7a2
affy3/crdata_affyClassify[method=knn]/assignments 4ad3a08922898f46
affy3/crdata_affyNormalize[]/normalized 2b7a177fa38aa4dc
affy3/crdata_affyQC[]/qc 937c9ca9f71813d1
affy3/crdata_heatmap_plot_demo[]/heatmap 9b89f0f9b0f560c9
affy3/crdata_heatmap_plot_demo[]/order 248ffbd144e85f7b
affy3/crdata_affyBoxplot[]/plot 282504cbdc57d561
affy3/crdata_affyMAPlot[]/plot 7ada84961e6a3bde
affy3/crdata_affyVolcanoPlot[]/plot 8fc6573e3a3336a6
affy3/crdata_affyCorrelationMatrix[]/correlations c6f997913673d6bd
affy3/crdata_affyGeneFilter[]/filtered 900dceef5f7fd488
affy3/crdata_affyClusterSamples[]/clusters 92b55dd1ccdecd2d
affy3/crdata_affyKMeansGenes[]/clusters 4775ebae9fd95b8c
table0/crdata_descriptiveStatistics[]/summary cc4c10d1bfab3679
table0/crdata_multipleTestingCorrection[method=BH]/adjusted 4a5bf521e4e20bb7
table0/crdata_multipleTestingCorrection[method=holm]/adjusted c3f2e5ec36405915
table0/crdata_multipleTestingCorrection[method=bonferroni]/adjusted 60b9c89bf98e8ac5
table0/crdata_histogramPlot[]/bins 95c39519b9742b63
table0/crdata_scatterPlot[]/plot d69806f1d50564d7
table1/crdata_descriptiveStatistics[]/summary 01a76fea0644f6ef
table1/crdata_multipleTestingCorrection[method=BH]/adjusted c087cff94d70fcf8
table1/crdata_multipleTestingCorrection[method=holm]/adjusted 3d9d9f9a48ccd355
table1/crdata_multipleTestingCorrection[method=bonferroni]/adjusted d8cbd3e642b00e20
table1/crdata_histogramPlot[]/bins 8e5a3927296bdd9a
table1/crdata_scatterPlot[]/plot 59d20bd75d7bf06e
table2/crdata_descriptiveStatistics[]/summary eb9c414d80c12cea
table2/crdata_multipleTestingCorrection[method=BH]/adjusted f96bf512b63f213b
table2/crdata_multipleTestingCorrection[method=holm]/adjusted 3ac7919c7b37657e
table2/crdata_multipleTestingCorrection[method=bonferroni]/adjusted fbb6166b9ed8e2df
table2/crdata_histogramPlot[]/bins 1ee2dd8f79f0cb15
table2/crdata_scatterPlot[]/plot d20ce3cd6faf3604
table3/crdata_descriptiveStatistics[]/summary df643644b246dad8
table3/crdata_multipleTestingCorrection[method=BH]/adjusted 3f93f45e0eb60fe8
table3/crdata_multipleTestingCorrection[method=holm]/adjusted 81e9c321625827ae
table3/crdata_multipleTestingCorrection[method=bonferroni]/adjusted 41ee11d24d5d77e2
table3/crdata_histogramPlot[]/bins e0f2241949fa6db4
table3/crdata_scatterPlot[]/plot e8e15ce60b7062c1
pca0/crdata_affyPCA[]/scores 0092c67bd20c4288
pca0/crdata_affyPCA[]/plot 2eca3adefc6f3b2d
pca1/crdata_affyPCA[]/scores 01d567e71fedd19d
pca1/crdata_affyPCA[]/plot 2a4c9052decbd8c1
pca2/crdata_affyPCA[]/scores e2a3c7498bc1ce3c
pca2/crdata_affyPCA[]/plot e198364a3f267d98
pca3/crdata_affyPCA[]/scores 8ac4c431d98b3cdf
pca3/crdata_affyPCA[]/plot 3e78840414c50ea3
matrix0/crdata_quantileNormalize[]/normalized 722f3255dad21b6e
matrix1/crdata_quantileNormalize[]/normalized c77a4a10bfe27c62
matrix2/crdata_quantileNormalize[]/normalized 5ccb854e13526d32
matrix3/crdata_quantileNormalize[]/normalized 6e2a66205b58b8ce
counts0/crdata_sequenceDifferentialExpression[adjust=BH]/toptable 96eb6c4de886eaca
counts0/crdata_sequenceDifferentialExpression[adjust=holm]/toptable 61dd4979ab6399ee
counts0/crdata_sequenceDifferentialExpression[adjust=bonferroni]/toptable 8ba3abe6be7f9218
counts0/crdata_sequenceDifferentialExpression[adjust=none]/toptable 5557f82401cb477c
counts1/crdata_sequenceDifferentialExpression[adjust=BH]/toptable ee5dc87e2acf46ce
counts1/crdata_sequenceDifferentialExpression[adjust=holm]/toptable 6ce83d3d0c41c9c7
counts1/crdata_sequenceDifferentialExpression[adjust=bonferroni]/toptable 1da272700ef90ce4
counts1/crdata_sequenceDifferentialExpression[adjust=none]/toptable 8ce71182c717c1c1
counts2/crdata_sequenceDifferentialExpression[adjust=BH]/toptable d66895ccaa6f15ba
counts2/crdata_sequenceDifferentialExpression[adjust=holm]/toptable 1dbe934f71e05834
counts2/crdata_sequenceDifferentialExpression[adjust=bonferroni]/toptable f2b67907b4202292
counts2/crdata_sequenceDifferentialExpression[adjust=none]/toptable 5c7955142afe5bf4
counts3/crdata_sequenceDifferentialExpression[adjust=BH]/toptable 30eacfd52891842b
counts3/crdata_sequenceDifferentialExpression[adjust=holm]/toptable a9e0d82d0bbbd2c6
counts3/crdata_sequenceDifferentialExpression[adjust=bonferroni]/toptable 8783522f728d4294
counts3/crdata_sequenceDifferentialExpression[adjust=none]/toptable 8fae719c48ac7f63
";
