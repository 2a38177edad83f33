//! The CRData toolset — "35 tools with various functions" (§IV.B).
//!
//! Each tool is a complete Galaxy [`ToolDefinition`]: typed parameters, a
//! cost model (calibrated to the paper's R-tool timings), and a behavior
//! implemented on the `stats`/`genomics` substrate that computes real
//! artifacts (tables and SVG figures).
//!
//! Tool catalog:
//! * [`affy`] — 13 expression-array tools (differential expression,
//!   classification, normalization, QC, clustering, heatmaps, …);
//! * [`sequence`] — 8 RNA-seq tools (count tests, read counting per
//!   transcript, coverage, filtering, …);
//! * [`general`] — 14 general statistical tools (t-tests, corrections,
//!   regression, survival, plots, …).

pub mod affy;
pub mod general;
pub mod sequence;

use cumulus_galaxy::{
    Content, ContentBody, RegistryError, ToolDefinition, ToolError, ToolInvocation, ToolOutput,
    ToolRegistry,
};

use crate::decimal;
use crate::matrix::LabelledMatrix;

/// Total number of CRData tools (the paper's count).
pub const TOOL_COUNT: usize = 35;

/// The full catalog: `(tool-panel section, definition)` pairs.
pub fn catalog() -> Vec<(&'static str, ToolDefinition)> {
    let mut out = Vec::with_capacity(TOOL_COUNT);
    out.extend(affy::tools().into_iter().map(|t| ("CRData: Expression", t)));
    out.extend(
        sequence::tools()
            .into_iter()
            .map(|t| ("CRData: Sequencing", t)),
    );
    out.extend(
        general::tools()
            .into_iter()
            .map(|t| ("CRData: Statistics", t)),
    );
    out
}

/// Register every CRData tool into a Galaxy registry (what the
/// `galaxy-globus-crdata.rb` recipe does at deploy time).
pub fn register_all(registry: &mut ToolRegistry) -> Result<(), RegistryError> {
    for (section, tool) in catalog() {
        registry.register(section, tool)?;
    }
    Ok(())
}

// ----- shared input/output plumbing --------------------------------------

/// A matrix input's labels, borrowed from its dataset, with a copy of its
/// values for the tool to transform in place.
pub(crate) struct MatrixInput<'a> {
    pub(crate) row_names: &'a [String],
    pub(crate) col_names: &'a [String],
    /// Row-major; `values[r * col_names.len() + c]`.
    pub(crate) values: Vec<f64>,
}

impl MatrixInput<'_> {
    /// An owned matrix, labels copied.
    pub(crate) fn into_matrix(self) -> LabelledMatrix {
        LabelledMatrix::new(
            self.row_names.to_vec(),
            self.col_names.to_vec(),
            self.values,
        )
    }
}

/// Extract a matrix input as an owned matrix (see [`matrix_values`]).
pub(crate) fn matrix_input(inv: &ToolInvocation, name: &str) -> Result<LabelledMatrix, ToolError> {
    matrix_values(inv, name).map(MatrixInput::into_matrix)
}

/// Extract a matrix input, copying only its values. A dataset is user
/// data, so a value count that disagrees with the labels, or a non-finite
/// cell the statistics cannot order, is a tool error rather than a panic
/// in the job's completion.
pub(crate) fn matrix_values<'a>(
    inv: &ToolInvocation<'a>,
    name: &str,
) -> Result<MatrixInput<'a>, ToolError> {
    match inv.input(name).map(Content::body) {
        Some(ContentBody::Matrix {
            row_names,
            col_names,
            values,
        }) => {
            let (rows, cols) = (row_names.len(), col_names.len());
            if values.len() != rows * cols {
                return Err(ToolError(format!(
                    "{name}: {} values for a {rows} x {cols} matrix",
                    values.len()
                )));
            }
            if let Some(at) = values.iter().position(|v| !v.is_finite()) {
                return Err(ToolError(format!(
                    "{name}: non-finite value {} at row {:?}, column {:?}",
                    values[at],
                    row_names[at / cols],
                    col_names[at % cols]
                )));
            }
            Ok(MatrixInput {
                row_names,
                col_names,
                values: values.clone(),
            })
        }
        Some(other) => Err(ToolError(format!(
            "{name}: expected an expression matrix, got {}",
            content_kind(other)
        ))),
        None => Err(ToolError(format!("{name}: missing input dataset"))),
    }
}

/// Borrow a table input's columns and rows.
pub(crate) fn table_input<'a>(
    inv: &ToolInvocation<'a>,
    name: &str,
) -> Result<(&'a [String], &'a [Vec<String>]), ToolError> {
    match inv.input(name).map(Content::body) {
        Some(ContentBody::Table { columns, rows }) => Ok((columns, rows)),
        Some(other) => Err(ToolError(format!(
            "{name}: expected a table, got {}",
            content_kind(other)
        ))),
        None => Err(ToolError(format!("{name}: missing input dataset"))),
    }
}

fn content_kind(c: &ContentBody) -> &'static str {
    match c {
        ContentBody::Text(_) => "text",
        ContentBody::Table { .. } => "a table",
        ContentBody::Svg(_) => "an image",
        ContentBody::Archive { .. } => "an archive",
        ContentBody::Matrix { .. } => "a matrix",
        ContentBody::Opaque => "opaque data",
    }
}

/// Build a tabular output.
pub(crate) fn table_output(
    name: &str,
    dataset_name: &str,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
) -> ToolOutput {
    ToolOutput {
        name: name.to_string(),
        dataset_name: dataset_name.to_string(),
        content: Content::new(ContentBody::Table { columns, rows }),
        size: None,
    }
}

/// Build an SVG figure output.
pub(crate) fn svg_output(name: &str, dataset_name: &str, svg: String) -> ToolOutput {
    ToolOutput {
        name: name.to_string(),
        dataset_name: dataset_name.to_string(),
        content: Content::new(ContentBody::Svg(svg)),
        size: None,
    }
}

/// Compact numeric formatting for tables (R-ish significant digits):
/// `{:.4}` from 0.001 up to 100,000 in magnitude, `{:.3e}` outside.
pub(crate) fn fmt(x: f64) -> String {
    let mut out = String::new();
    if x == 0.0 {
        out.push('0');
    } else if x.abs() >= 0.001 && x.abs() < 100_000.0 {
        decimal::push_fixed(&mut out, x, 4);
    } else {
        decimal::push_sci(&mut out, x, 3);
    }
    out
}

/// Parse a float parameter with a tool-friendly error.
pub(crate) fn float_param(inv: &ToolInvocation, name: &str) -> Result<f64, ToolError> {
    inv.param(name)
        .ok_or_else(|| ToolError(format!("missing parameter {name:?}")))?
        .parse()
        .map_err(|_| ToolError(format!("{name} must be a number")))
}

/// Parse an integer parameter.
pub(crate) fn int_param(inv: &ToolInvocation, name: &str) -> Result<i64, ToolError> {
    inv.param(name)
        .ok_or_else(|| ToolError(format!("missing parameter {name:?}")))?
        .parse()
        .map_err(|_| ToolError(format!("{name} must be an integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_35_tools() {
        let tools = catalog();
        assert_eq!(tools.len(), TOOL_COUNT);
        // All ids unique.
        let mut ids: Vec<&str> = tools.iter().map(|(_, t)| t.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate tool ids");
    }

    #[test]
    fn register_all_populates_registry() {
        let mut registry = ToolRegistry::new();
        register_all(&mut registry).unwrap();
        assert_eq!(registry.len(), TOOL_COUNT);
        assert_eq!(registry.sections().len(), 3);
        assert!(registry.tool("crdata_affyDifferentialExpression").is_ok());
        assert!(registry.tool("crdata_sequenceCountsPerTranscript").is_ok());
        assert!(registry.tool("crdata_survivalKaplanMeier").is_ok());
    }

    #[test]
    fn register_all_twice_fails_cleanly() {
        let mut registry = ToolRegistry::new();
        register_all(&mut registry).unwrap();
        assert!(register_all(&mut registry).is_err());
    }

    #[test]
    fn every_tool_names_paper_cost_model_sanely() {
        for (_, tool) in catalog() {
            assert!(tool.cost.serial_secs > 0.0, "{}", tool.id);
            assert!(!tool.description.is_empty(), "{}", tool.id);
            assert!(tool.id.starts_with("crdata_"), "{}", tool.id);
            assert!(!tool.outputs.is_empty(), "{}", tool.id);
        }
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.5000");
        assert_eq!(fmt(1e-8), "1.000e-8");
        assert_eq!(fmt(1e7), "1.000e7");
    }
}
