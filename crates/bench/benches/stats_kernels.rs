//! Benchmarks of the statistical kernels the CRData tools are built on, at
//! realistic expression-analysis sizes, plus one whole tool run and its
//! phases at the shape `galaxy-elastic` analyses. Plain `Instant`-based
//! harness (`harness = false`; the build environment ships no criterion).
//!
//! Every row runs one warm-up call, then [`BATCHES`] timed batches, and
//! prints the median and the min–max of the per-call time over the
//! batches. Before timing, repeated runs of the whole tool must give
//! outputs with equal content ids.
//!
//! Usage: `cargo bench -p cumulus-bench --bench stats_kernels [-- --quick]`.
//! `--quick` times one call per batch: it runs every row and the
//! repeated-run check, and its numbers are not measurements.

use std::collections::BTreeMap;
use std::time::Instant;

use cumulus_crdata::datagen::{generate_cel_bundle, CelBundleSpec};
use cumulus_crdata::stats::cluster::{hierarchical, Linkage};
use cumulus_crdata::stats::distance::Metric;
use cumulus_crdata::stats::fdr::{adjust, Adjustment};
use cumulus_crdata::stats::norm;
use cumulus_crdata::stats::ttest::{welch_t_test, welch_t_tests};
use cumulus_crdata::svg::{scatter_plot, PlotPoint};
use cumulus_galaxy::{ToolDefinition, ToolInvocation};
use cumulus_net::DataSize;
use cumulus_simkit::rng::RngStream;

/// Timed batches per row.
const BATCHES: usize = 7;

/// Whole-tool runs the repeated-run check compares.
const REPEATS: usize = 3;

fn bundle(probes: usize, per_group: usize) -> cumulus_crdata::CelBundle {
    let spec = CelBundleSpec {
        samples_per_group: per_group,
        probes,
        differential: probes / 20,
        effect_log2: 1.5,
        archive_size: DataSize::from_mb(10),
    };
    generate_cel_bundle(&spec, &mut RngStream::derive(5, "bench"))
}

struct Harness {
    quick: bool,
}

impl Harness {
    /// Time `f` in [`BATCHES`] batches of `iters` calls (one in quick
    /// mode) and print the median and min–max per call.
    fn bench<T>(&self, name: &str, iters: u32, mut f: impl FnMut() -> T) {
        let iters = if self.quick { 1 } else { iters };
        std::hint::black_box(f()); // warm-up
        let mut per_call: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed().as_secs_f64() / f64::from(iters)
            })
            .collect();
        per_call.sort_by(f64::total_cmp);
        println!(
            "{name:<34} {:>10.1} us/iter  (min {:.1}, max {:.1}; {BATCHES} x {iters})",
            per_call[BATCHES / 2] * 1e6,
            per_call[0] * 1e6,
            per_call[BATCHES - 1] * 1e6,
        );
    }
}

/// Run `tool` [`REPEATS`] times and assert that every run's outputs have
/// the first run's content ids.
fn assert_repeatable(tool: &ToolDefinition, inv: &ToolInvocation) {
    let ids = || -> Vec<String> {
        tool.behavior
            .run(inv)
            .expect("the tool runs")
            .iter()
            .map(|o| format!("{}={}", o.name, o.content.content_id().hex()))
            .collect()
    };
    let first = ids();
    for run in 1..REPEATS {
        assert_eq!(ids(), first, "{} run {run} differs from run 0", tool.id);
    }
    println!(
        "{} repeats over {REPEATS} runs: {}",
        tool.id,
        first.join(" ")
    );
}

fn main() {
    let h = Harness {
        quick: std::env::args().any(|a| a == "--quick"),
    };

    println!("== normalization ==");
    for probes in [2_000usize, 10_000] {
        let b = bundle(probes, 4);
        h.bench(&format!("rma_like/{probes}"), 20, || {
            let mut m = b.matrix.clone();
            norm::rma_like(&mut m);
            m.values[0]
        });
    }

    println!("== per_probe_tests ==");
    let b = bundle(10_000, 4);
    h.bench("welch_10k_probes", 20, || {
        let m = &b.matrix;
        let mut sig = 0usize;
        for r in 0..m.nrows() {
            let row = m.row(r);
            let (g1, g2) = row.split_at(4);
            if let Some(t) = welch_t_test(g1, g2) {
                if t.p < 0.05 {
                    sig += 1;
                }
            }
        }
        sig
    });
    let pvals: Vec<f64> = (0..10_000)
        .map(|i| ((i * 7919) % 10_000) as f64 / 10_000.0)
        .collect();
    h.bench("bh_adjust_10k", 50, || {
        adjust(&pvals, Adjustment::BenjaminiHochberg)
    });

    println!("== whole_tool ==");
    // One cold catalog behavior run on the bundle shape `galaxy-elastic`
    // sessions analyse (2,000 probes, two samples a group). The server
    // runs each distinct invocation once, but the 16 cold runs of an
    // episode are still that workload's largest cost, so this row and the
    // phase rows below track the part of it the statistics decide.
    let spec = CelBundleSpec::four_cel_samples();
    let cel = generate_cel_bundle(&spec, &mut RngStream::derive(5, "bench")).matrix;
    let input = cumulus_crdata::matrix_to_content(cel.clone());
    let tool = cumulus_crdata::catalog()
        .into_iter()
        .map(|(_, t)| t)
        .find(|t| t.id == "crdata_affyDifferentialExpression")
        .expect("the catalog has affyDifferentialExpression");
    let provided = BTreeMap::from([("input".to_string(), "dataset-1".to_string())]);
    let mut params = tool.resolve_params(&provided).expect("defaults resolve");
    params.remove("input");
    let inv = ToolInvocation {
        params,
        inputs: BTreeMap::from([("input".to_string(), &input)]),
        input_size: spec.archive_size,
    };
    assert_repeatable(&tool, &inv);
    h.bench("affyDifferentialExpression/2000x4", 50, || {
        tool.behavior.run(&inv).expect("the tool runs")
    });

    println!("== whole_tool phases (2000x4) ==");
    // The tool's own steps on the same bundle, each fed the previous
    // step's real output. The normalization row includes refilling its
    // 64 KB of values from the raw bundle.
    let mut m = cel.clone();
    h.bench("rma_like/2000x4", 50, || {
        m.values.copy_from_slice(&cel.values);
        norm::rma_like(&mut m);
        m.values[0]
    });
    let welch = |m: &cumulus_crdata::LabelledMatrix| -> (Vec<f64>, Vec<f64>) {
        // Columns are g1_1, g1_2, g2_1, g2_2; the tool tests g2 against g1.
        let rows = (0..m.nrows()).map(|r| {
            let (g1, g2) = m.row(r).split_at(2);
            (g2, g1)
        });
        welch_t_tests(rows)
            .into_iter()
            .map(|t| t.map_or((0.0, 1.0), |t| (t.mean_diff, t.p)))
            .unzip()
    };
    h.bench("welch_2000x4", 50, || welch(&m));
    let (log_fc, p) = welch(&m);
    h.bench("bh_adjust_2000", 200, || {
        adjust(&p, Adjustment::BenjaminiHochberg)
    });
    let adj_p = adjust(&p, Adjustment::BenjaminiHochberg);
    let points: Vec<PlotPoint> = (0..p.len())
        .map(|i| PlotPoint {
            x: log_fc[i],
            y: -p[i].max(1e-300).log10(),
            highlight: adj_p[i] <= 0.05,
        })
        .collect();
    h.bench("volcano_svg_2000", 100, || {
        scatter_plot(
            "affyDifferentialExpression",
            "log2 fold change",
            "-log10 p",
            &points,
        )
    });

    println!("== clustering ==");
    let b = bundle(200, 8);
    let items: Vec<Vec<f64>> = (0..b.matrix.nrows())
        .map(|r| b.matrix.row(r).to_vec())
        .collect();
    h.bench("hierarchical_200_genes", 10, || {
        let dend = hierarchical(&items, Metric::Correlation, Linkage::Average);
        dend.leaf_order()
    });

    println!("== read_counting ==");
    let rs = cumulus_crdata::generate_read_set(
        &cumulus_crdata::ReadSetSpec {
            transcripts: 200,
            reads_per_library: 100_000,
            differential: 10,
            fold_change: 3.0,
        },
        &mut RngStream::derive(6, "bench"),
    );
    let index = cumulus_crdata::genomics::FeatureIndex::build(rs.annotation.clone());
    h.bench("count_100k_reads_200_tx", 10, || {
        index.count_reads(&rs.library1)
    });
}
