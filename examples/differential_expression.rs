//! The full §V.A cardiovascular use case, with real statistical output.
//!
//! Steps (Figure 6):
//! 1. deploy a Galaxy instance with Globus Transfer + CRData tools;
//! 2. "Get Data via Globus Online": fourCelFileSamples.zip (10.7 MB);
//! 3. run `affyDifferentialExpression.R` → top table + volcano plot;
//! 4. `gp-instance-update` adds a c1.medium node, transfer the larger
//!    affyCelFileSamples.zip (190.3 MB), rerun the analysis.
//!
//! Run with: `cargo run --release --example differential_expression`

use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::time::SimTime;
use cumulus::store::{DataPlane, EvictionPolicy, InputSpec, ObjectStoreConfig, SharingBackend};

fn main() {
    let t0 = SimTime::ZERO;
    println!("== Step 0: deploy the Galaxy instance (m1.small head) ==");
    let (mut s, report) = UseCaseScenario::deploy(42, t0).expect("deployment succeeds");
    println!(
        "deployed {} host(s) in {} (paper Figure 10: 8.8 min on m1.small)",
        report.host_times.len(),
        report.duration_from(t0)
    );

    println!("\n== Step 1-2: Get Data via Globus Online ==");
    println!("  Endpoint: {}", s.remote_endpoint);
    println!("  Path:     /home/boliu/fourCelFileSamples.zip (10.7 MB)");
    let (small_ds, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    println!("  transferred in {}", t1.since(report.ready_at));

    println!("\n== Step 3: affyDifferentialExpression.R on the small dataset ==");
    let (job, t2) = s.run_differential_expression(t1, small_ds).unwrap();
    println!("  execution took {}", t2.since(t1));
    let outputs = s.galaxy.job(job).unwrap().outputs.clone();
    let table = s.galaxy.dataset(outputs[0]).unwrap();
    let (cols, rows) = table.content.as_table().expect("top table");
    println!("  top table ({} rows) — first 8:", rows.len());
    println!("  {}", cols.join("\t"));
    for row in rows.iter().take(8) {
        println!("  {}", row.join("\t"));
    }
    let figure = s.galaxy.dataset(outputs[1]).unwrap();
    println!(
        "  figure output: {} ({} bytes of SVG)",
        figure.name,
        figure.size.as_bytes()
    );

    println!("\n== Step 4: scale up, then analyze the 190.3 MB dataset ==");
    println!("$ gp-instance-update -t newtopology.json {}", s.instance);
    let joined = s.add_medium_worker(t2).unwrap();
    println!("  c1.medium worker joined after {}", joined.since(t2));
    let (large_ds, t3) = s.transfer_affy_cel_samples(joined).unwrap();
    println!(
        "  affyCelFileSamples.zip transferred in {}",
        t3.since(joined)
    );
    let (_job2, t4) = s.run_differential_expression(t3, large_ds).unwrap();
    println!("  execution took {}", t4.since(t3));

    println!("\n== History panel ==");
    print!("{}", s.galaxy.history_panel(s.history).unwrap());

    println!("== Provenance of the final top table ==");
    let last_job = s.galaxy.job(_job2).unwrap();
    let lineage = s
        .galaxy
        .lineage(last_job.outputs[0])
        .expect("tool-produced provenance is acyclic");
    println!(
        "  dataset {} derives from {} ancestor dataset(s)",
        last_job.outputs[0],
        lineage.len()
    );
    for job in s
        .galaxy
        .replay_plan(last_job.outputs[0])
        .expect("tool-produced provenance is acyclic")
    {
        let finished = job.finished_at.expect("a replayed job finished");
        println!(
            "  [{} - {}] {} v{}",
            job.submitted_at, finished, job.tool_id, job.tool_version
        );
    }

    println!("\n== Step 5: rerun with the content-addressed data plane ==");
    // The same analysis again, but staging through cumulus-store instead
    // of plain NFS: the first run fetches the 190.3 MB archive from the
    // object store and fills the c1.medium's cache; the rerun hits it.
    let archive = s.galaxy.dataset(large_ds).unwrap();
    let input = InputSpec {
        cid: archive.content_id(),
        size: archive.size,
    };
    let mut plane = DataPlane::new(
        SharingBackend::CachedObjectStore,
        400.0,
        ObjectStoreConfig::default(),
        cumulus::store::DataSize::from_gb(2),
        EvictionPolicy::Lru,
    );
    plane.seed_dataset(input.cid, input.size);
    let cold = plane.stage_job("c1-medium-worker", &[input], 1);
    let warm = plane.stage_job("c1-medium-worker", &[input], 1);
    println!(
        "  cold stage-in of {} ({}): {}",
        archive.name, input.cid, cold.total
    );
    println!(
        "  warm rerun on the same worker: {} — the cache saved {}",
        warm.total,
        cold.total - warm.total
    );

    let cost = s.window_cost(t0, t4);
    println!("\ntotal EC2 cost of the session: ${cost:.4}");
    println!(
        "paper comparison: steps 3+4 would take 10.7 min on the small node alone; \
         with the added c1.medium the runs above took {}",
        (t2.since(t1) + t4.since(t3))
    );
}
