//! Benchmarks of the statistical kernels the CRData tools are built on, at
//! realistic expression-analysis sizes, plus one whole tool run. Plain
//! `Instant`-based harness (`harness = false`; the build environment ships
//! no criterion).

use std::collections::BTreeMap;
use std::time::Instant;

use cumulus_crdata::datagen::{generate_cel_bundle, CelBundleSpec};
use cumulus_crdata::stats::cluster::{hierarchical, Linkage};
use cumulus_crdata::stats::distance::Metric;
use cumulus_crdata::stats::fdr::{adjust, Adjustment};
use cumulus_crdata::stats::norm;
use cumulus_crdata::stats::ttest::welch_t_test;
use cumulus_galaxy::ToolInvocation;
use cumulus_net::DataSize;
use cumulus_simkit::rng::RngStream;

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

/// Time `f` over `iters` iterations and report mean wall time per call.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<34} {:>12.1} us/iter", per * 1e6);
}

fn main() {
    println!("== normalization ==");
    for probes in [2_000usize, 10_000] {
        let b = bundle(probes, 4);
        bench(&format!("rma_like/{probes}"), 20, || {
            let mut m = b.matrix.clone();
            norm::rma_like(&mut m);
            m.values[0]
        });
    }

    println!("== per_probe_tests ==");
    let b = bundle(10_000, 4);
    bench("welch_10k_probes", 20, || {
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
    bench("bh_adjust_10k", 50, || {
        adjust(&pvals, Adjustment::BenjaminiHochberg)
    });

    println!("== whole_tool ==");
    // One cold catalog behavior run on the bundle shape `galaxy-elastic`
    // sessions analyse. The server runs each distinct invocation once, so
    // this row, not that workload, measures the statistics.
    let spec = CelBundleSpec::four_cel_samples();
    let input = cumulus_crdata::matrix_to_content(
        generate_cel_bundle(&spec, &mut RngStream::derive(5, "bench")).matrix,
    );
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
    bench("affyDifferentialExpression/2000x4", 50, || {
        tool.behavior.run(&inv).expect("the tool runs")
    });

    println!("== clustering ==");
    let b = bundle(200, 8);
    let items: Vec<Vec<f64>> = (0..b.matrix.nrows())
        .map(|r| b.matrix.row(r).to_vec())
        .collect();
    bench("hierarchical_200_genes", 10, || {
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
    bench("count_100k_reads_200_tx", 10, || {
        index.count_reads(&rs.library1)
    });
}
