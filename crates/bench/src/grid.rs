//! The one driver behind the parameter-grid binaries (E10, E12–E15).
//!
//! A [`Grid`] supplies what differs between the experiments: its cells,
//! one cell's episode, its table and JSON document, its claim check and,
//! for E13 and E15, a `--report` section. [`main`] does everything else,
//! once: it parses the flags, runs every cell serially and then fanned out
//! over the replica runner at `--threads`, checks the claim, asserts both
//! passes render byte-identical tables, documents and reports (the
//! [`gate`]), prints, and records the document with
//! [`write_results`](crate::write_results) unless `--quick`.

use cumulus::provision::json::Json;
use cumulus::simkit::runner::{run_replicas, ReplicaPlan};

/// One parameter grid.
pub trait Grid: Sync {
    /// One cell's configuration.
    type Cell: Sync;
    /// One cell's configuration plus its measured episode.
    type Row: Send;

    /// The committed results file a full run rewrites at the repo root.
    const RESULTS: &'static str;
    /// Whether the binary accepts `--report` (E13 and E15 only).
    const HAS_REPORT: bool = false;

    /// The cells in report order; `quick` trims to the CI smoke shape,
    /// which always contains the claim cells.
    fn cells(&self, quick: bool) -> Vec<Self::Cell>;

    /// Run one cell's episode at `seed`. `report` asks the row to carry
    /// what [`Grid::report`] reads; it must not change anything
    /// [`Grid::render`] or [`Grid::json`] read.
    fn run(&self, seed: u64, cell: &Self::Cell, report: bool) -> Self::Row;

    /// The printed table, claim line included.
    fn render(&self, rows: &[Self::Row]) -> String;

    /// The document a full run records in [`Grid::RESULTS`]. Only
    /// seed-deterministic quantities, never wall times.
    fn json(&self, seed: u64, rows: &[Self::Row]) -> Json;

    /// Panic unless `rows` bear out the grid's claim. Runs before either
    /// pass renders, so [`Grid::render`] and [`Grid::json`] may rely on it.
    fn check(&self, rows: &[Self::Row]);

    /// The `--report` section, printed after the table. Only called when
    /// [`Grid::HAS_REPORT`] is set.
    fn report(&self, _rows: &[Self::Row]) -> String {
        String::new()
    }
}

/// What one invocation of a grid binary asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// `--seed`; defaults to [`REPORT_SEED`](crate::REPORT_SEED).
    pub seed: u64,
    /// `--threads` for the parallel pass (`0` = one per CPU).
    pub threads: usize,
    /// `--quick`: the CI smoke shape, and nothing is written.
    pub quick: bool,
    /// `--report`: print the grid's report section after the table.
    pub report: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: crate::REPORT_SEED,
            threads: 0,
            quick: false,
            report: false,
        }
    }
}

/// A grid run that passed the [`gate`]: the parallel pass's rows plus
/// what the binary prints and records.
#[derive(Debug)]
pub struct Gated<R> {
    /// The parallel pass's rows, in cell order.
    pub rows: Vec<R>,
    /// The rendered table.
    pub table: String,
    /// The results document.
    pub doc: Json,
    /// The report section, when asked for.
    pub report: Option<String>,
}

/// Run every cell of `grid` once, fanned out over the replica runner at
/// `args.threads`; rows come back in cell order at any thread count.
pub fn pass<G: Grid>(grid: &G, args: &Args) -> Vec<G::Row> {
    let cells = grid.cells(args.quick);
    run_replicas(
        ReplicaPlan::new(args.seed, cells.len()).with_threads(args.threads),
        |i, _seeds| grid.run(args.seed, &cells[i], args.report),
    )
}

/// Run `grid` serially and then at `args.threads`, check its claim on the
/// parallel rows, and assert that both passes render the same table,
/// document and (when asked for) report, byte for byte.
///
/// # Panics
/// Panics if the claim fails or the passes diverge.
pub fn gate<G: Grid>(grid: &G, args: &Args) -> Gated<G::Row> {
    let serial = pass(
        grid,
        &Args {
            threads: 1,
            ..*args
        },
    );
    let rows = pass(grid, args);
    grid.check(&rows);
    let same = |what: &str, serial: String, parallel: String| {
        assert!(
            serial == parallel,
            "{}: the parallel pass's {what} diverged from the serial pass's",
            std::any::type_name::<G>()
        );
        parallel
    };
    let table = same("table", grid.render(&serial), grid.render(&rows));
    let doc = grid.json(args.seed, &rows);
    same("JSON", grid.json(args.seed, &serial).render(), doc.render());
    let report = args
        .report
        .then(|| same("report", grid.report(&serial), grid.report(&rows)));
    Gated {
        rows,
        table,
        doc,
        report,
    }
}

/// The whole grid binary: parse the flags (a usage error exits 2), run
/// the [`gate`], print the table and any report, and record the document
/// unless `--quick`.
pub fn main<G: Grid>(grid: &G) {
    let flags: &[&str] = if G::HAS_REPORT {
        &["--quick", "--report"]
    } else {
        &["--quick"]
    };
    crate::check_args(flags, None);
    let flag = |name: &str| std::env::args().any(|a| a == name);
    let args = Args {
        seed: crate::seed_from_args(crate::REPORT_SEED),
        threads: crate::threads_from_args(0),
        quick: flag("--quick"),
        report: flag("--report"),
    };
    drive(grid, &args, &mut std::io::stdout());
}

/// [`main`] once the flags are parsed, printing to `out`.
fn drive<G: Grid>(grid: &G, args: &Args, out: &mut impl std::io::Write) {
    let run = gate(grid, args);
    let mut text = run.table;
    if let Some(report) = &run.report {
        text.push('\n');
        text.push_str(report);
    }
    out.write_all(text.as_bytes()).expect("write stdout");
    crate::write_results(G::RESULTS, &run.doc, args.quick);
}

/// Round to four decimals: every grid document's precision for derived
/// quantities.
pub fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A toy grid: each cell's row is the cell itself, plus however many
    /// calls `run` had seen when `drift` is set (so the second pass
    /// differs from the first).
    struct Toy {
        drift: bool,
        claim_holds: bool,
        calls: AtomicUsize,
    }

    impl Toy {
        fn new(drift: bool, claim_holds: bool) -> Toy {
            Toy {
                drift,
                claim_holds,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl Grid for Toy {
        type Cell = usize;
        type Row = usize;
        const RESULTS: &'static str = "BENCH_toy.json";
        const HAS_REPORT: bool = true;

        fn cells(&self, quick: bool) -> Vec<usize> {
            (0..if quick { 3 } else { 6 }).collect()
        }

        fn run(&self, _seed: u64, cell: &usize, _report: bool) -> usize {
            let calls = self.calls.fetch_add(1, Ordering::Relaxed);
            if self.drift {
                cell + calls
            } else {
                *cell
            }
        }

        fn render(&self, rows: &[usize]) -> String {
            format!("{rows:?}\n")
        }

        fn json(&self, seed: u64, rows: &[usize]) -> Json {
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("cells", Json::Num(rows.len() as f64)),
            ])
        }

        fn check(&self, _rows: &[usize]) {
            assert!(self.claim_holds, "toy claim fails");
        }

        fn report(&self, rows: &[usize]) -> String {
            format!("{} rows\n", rows.len())
        }
    }

    fn quick(threads: usize, report: bool) -> Args {
        Args {
            threads,
            quick: true,
            report,
            ..Args::default()
        }
    }

    fn panic_message(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(run).expect_err("the gate must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_deterministic_grid_passes_the_gate() {
        let run = gate(&Toy::new(false, true), &quick(3, true));
        assert_eq!(run.rows, vec![0, 1, 2]);
        assert_eq!(run.table, "[0, 1, 2]\n");
        assert_eq!(run.doc.render(), r#"{"cells":3,"seed":20120512}"#);
        assert_eq!(run.report.as_deref(), Some("3 rows\n"));
        assert_eq!(gate(&Toy::new(false, true), &quick(3, false)).report, None);
        assert_eq!(pass(&Toy::new(false, true), &Args::default()).len(), 6);
    }

    #[test]
    fn a_parallel_pass_that_differs_from_the_serial_one_fails_the_gate() {
        let message = panic_message(|| {
            gate(&Toy::new(true, true), &quick(2, false));
        });
        assert!(
            message.contains("Toy: the parallel pass's table diverged"),
            "{message}"
        );
    }

    #[test]
    fn a_quick_run_prints_the_table_then_the_report() {
        let mut out = Vec::new();
        drive(&Toy::new(false, true), &quick(2, true), &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), "[0, 1, 2]\n\n3 rows\n");
    }

    #[test]
    fn a_failed_claim_panics_before_anything_is_printed_or_written() {
        let full = Args {
            threads: 2,
            ..Args::default()
        };
        let mut out = Vec::new();
        let message = panic_message(std::panic::AssertUnwindSafe(|| {
            drive(&Toy::new(false, false), &full, &mut out)
        }));
        assert!(message.contains("toy claim fails"), "{message}");
        assert!(out.is_empty());
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert!(!root.join(Toy::RESULTS).exists());
    }
}
