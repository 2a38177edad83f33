//! The tool-run memo: each distinct tool invocation runs once.
//!
//! A tool's result is fixed by its behavior, version, value parameters,
//! input size and input contents ([`ToolBehavior::run`] must be a
//! deterministic function of the invocation). When many sessions run the
//! same tool on the same public bundle, the server runs the behavior for
//! the first completion and hands every later one a copy of the stored
//! outputs. Condor still runs each job for its simulated duration, so no
//! simulated outcome moves; only host time does.
//!
//! Entries are found through the tool id and the content id of each
//! dataset input (the ids `run_tool` hashes for the Condor ad), and then
//! checked exactly, never trusting the 64-bit hash: same behavior
//! allocation, same version, same value parameters, same input size and
//! bit-for-bit equal input contents. An input that changed between submit
//! and completion leaves its key stale; the stale key can then only miss,
//! so it never serves outputs of other contents.
//!
//! The memo is host state, not checkpoint state: a workflow checkpoint
//! records outputs' content ids, never memo entries, and a server built to
//! resume a run starts with an empty memo.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cumulus_net::DataSize;
use cumulus_store::ContentId;

use crate::dataset::Content;
use crate::tool::{ToolBehavior, ToolDefinition, ToolError, ToolInvocation, ToolOutput};

/// Where a run's entries live: the tool id and each dataset input's
/// content id at submission, by parameter name.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    pub(crate) tool_id: String,
    pub(crate) inputs: BTreeMap<String, ContentId>,
}

/// One successful run, with everything its result depends on.
struct MemoEntry {
    /// Held so the allocation `Arc::ptr_eq` compares against can never be
    /// reused by another behavior.
    behavior: Arc<dyn ToolBehavior>,
    version: String,
    params: BTreeMap<String, String>,
    input_size: DataSize,
    inputs: BTreeMap<String, Content>,
    outputs: Vec<ToolOutput>,
}

impl MemoEntry {
    fn matches(&self, tool: &ToolDefinition, inv: &ToolInvocation) -> bool {
        Arc::ptr_eq(&self.behavior, &tool.behavior)
            && self.version == tool.version
            && self.params == inv.params
            && self.input_size == inv.input_size
            && self.inputs.len() == inv.inputs.len()
            && self
                .inputs
                .iter()
                .zip(&inv.inputs)
                .all(|((a_name, a), (b_name, b))| a_name == b_name && same_bits(a, b))
    }
}

/// Successful tool runs, private to one server.
#[derive(Default)]
pub(crate) struct ToolMemo {
    entries: HashMap<MemoKey, Vec<MemoEntry>>,
}

impl ToolMemo {
    /// The outputs of `tool` on `inv`: a copy of a stored run that matches
    /// exactly, or a fresh run of the behavior, stored when it succeeds.
    /// Errors are never stored.
    pub(crate) fn run(
        &mut self,
        key: MemoKey,
        tool: &ToolDefinition,
        inv: &ToolInvocation,
    ) -> Result<Vec<ToolOutput>, ToolError> {
        let bucket = self.entries.get(&key);
        if let Some(hit) = bucket.and_then(|b| b.iter().find(|e| e.matches(tool, inv))) {
            return Ok(hit.outputs.clone());
        }
        let outputs = tool.behavior.run(inv)?;
        self.entries.entry(key).or_default().push(MemoEntry {
            behavior: Arc::clone(&tool.behavior),
            version: tool.version.clone(),
            params: inv.params.clone(),
            input_size: inv.input_size,
            inputs: inv
                .inputs
                .iter()
                .map(|(name, c)| (name.clone(), (*c).clone()))
                .collect(),
            outputs: outputs.clone(),
        });
        Ok(outputs)
    }
}

/// Content equality with floats compared by bit pattern. The derived
/// `PartialEq` equates `-0.0` with `0.0`, which the statistics kernels
/// order differently.
fn same_bits(a: &Content, b: &Content) -> bool {
    match (a, b) {
        (
            Content::Matrix {
                row_names: ra,
                col_names: ca,
                values: va,
            },
            Content::Matrix {
                row_names: rb,
                col_names: cb,
                values: vb,
            },
        ) => {
            ra == rb
                && ca == cb
                && va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        // No other variant holds a float, so `==` is exact; listing them
        // makes a new variant revisit this.
        (
            Content::Text(_)
            | Content::Table { .. }
            | Content::Svg(_)
            | Content::Archive { .. }
            | Content::Matrix { .. }
            | Content::Opaque,
            _,
        ) => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(values: Vec<f64>) -> Content {
        Content::Matrix {
            row_names: vec!["g1".to_string()],
            col_names: (0..values.len()).map(|i| format!("s{i}")).collect(),
            values,
        }
    }

    #[test]
    fn floats_compare_by_bit_pattern() {
        assert!(same_bits(&matrix(vec![0.0, 1.0]), &matrix(vec![0.0, 1.0])));
        assert!(!same_bits(&matrix(vec![0.0]), &matrix(vec![-0.0])));
        let next = f64::from_bits(1.0f64.to_bits() + 1);
        assert!(!same_bits(&matrix(vec![1.0]), &matrix(vec![next])));
        assert!(same_bits(&matrix(vec![f64::NAN]), &matrix(vec![f64::NAN])));
        assert!(!same_bits(&matrix(vec![1.0]), &Content::Opaque));
        assert!(same_bits(
            &Content::Text("x".to_string()),
            &Content::Text("x".to_string())
        ));
    }
}
