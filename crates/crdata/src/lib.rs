//! `cumulus-crdata` — the CRData statistical toolset and its substrate.
//!
//! CRData.org "is a web-based computational tool designed to execute
//! BioConductor scripts, written in R" (§IV.B); the paper integrates its 35
//! tools into Galaxy for the CardioVascular Research Grid. This crate
//! reimplements the whole stack natively in Rust:
//!
//! * [`matrix`] — labelled expression matrices;
//! * [`stats`] — descriptive statistics, special functions / distribution
//!   CDFs, t-tests, multiple-testing correction, normalization, clustering,
//!   classification, count tests, regression/PCA, survival (validated
//!   against R reference values);
//! * [`genomics`] — intervals, an indexed feature set, and read counting;
//! * [`svg`] — real SVG figure rendering (volcano/MA/PCA plots, heatmaps,
//!   boxplots);
//! * [`datagen`] — synthetic CEL bundles and RNA-seq read sets with
//!   planted ground truth, standing in for the paper's proprietary CVRG
//!   datasets (`fourCelFileSamples.zip` 10.7 MB, `affyCelFileSamples.zip`
//!   190.3 MB);
//! * [`tools`] — the 35 CRData tools as complete Galaxy tool definitions,
//!   each computing real artifacts with the calibrated R-tool cost model.

#![warn(missing_docs)]

pub mod datagen;
pub mod genomics;
pub mod matrix;
pub mod stats;
pub mod svg;
pub mod tools;

pub use datagen::{
    generate_cel_bundle, generate_read_set, CelBundle, CelBundleSpec, ReadSet, ReadSetSpec,
};
pub use matrix::LabelledMatrix;
pub use tools::{catalog, register_all, TOOL_COUNT};

use cumulus_galaxy::{Content, ContentBody};

/// Convert a labelled matrix into Galaxy dataset content.
pub fn matrix_to_content(m: LabelledMatrix) -> Content {
    Content::new(ContentBody::Matrix {
        row_names: m.row_names,
        col_names: m.col_names,
        values: m.values,
    })
}
