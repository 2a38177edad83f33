//! The statistical substrate behind the CRData tools.
//!
//! Every CRData `.R` script reduces to calls into this layer: descriptive
//! statistics, special functions and distribution CDFs, t-tests with
//! multiple-testing correction, normalization, clustering, classification,
//! count tests, regression/PCA, and survival curves — all implemented from
//! scratch and validated against R reference values in the unit tests.

pub mod classify;
pub mod cluster;
pub mod counts;
pub mod describe;
pub mod distance;
pub mod fdr;
pub mod norm;
pub mod order;
pub mod regress;
pub mod special;
pub mod survival;
pub mod ttest;
