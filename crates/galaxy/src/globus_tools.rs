//! The Globus Transfer toolset as native Galaxy tools (§IV.A, Figure 4).
//!
//! "The Globus Transfer toolset includes three tools: 1) third party
//! transfers between any Globus endpoints ('GO Transfer'), 2) upload to
//! Galaxy from any Globus endpoint ('Get Data via Globus Online') and
//! 3) download from Galaxy to any Globus endpoint ('Send Data via Globus
//! Online'). Each of these tools has been added as a native Galaxy tool
//! with an associated user interface."
//!
//! These definitions give the tools their registry presence and the
//! generated parameter forms of Figure 4. Execution is handled by the
//! server's transfer methods ([`GalaxyServer::get_data_via_globus`] and
//! friends), exactly as real Galaxy special-cases its data-source tools;
//! the behaviors here validate parameters and emit the transfer *request
//! receipt* the history panel shows while the hosted service works.
//!
//! [`GalaxyServer::get_data_via_globus`]: crate::server::GalaxyServer::get_data_via_globus

use std::sync::Arc;

use crate::dataset::{Content, ContentBody};
use crate::registry::{RegistryError, ToolRegistry};
use crate::tool::{CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolInvocation, ToolOutput};

/// Cost model for the Galaxy-side part of a transfer job (request
/// validation + submission; the bytes move inside the transfer service).
const SUBMIT_COST: CostModel = CostModel {
    serial_secs: 4.0,
    secs_per_mb: 0.0,
};

fn endpoint_param(name: &str, label: &str) -> ParamSpec {
    ParamSpec::text(name, label, "")
}

fn receipt(inv: &ToolInvocation, direction: &str) -> Vec<ToolOutput> {
    let src = inv.param("source_endpoint").unwrap_or("");
    let dst = inv.param("destination_endpoint").unwrap_or("");
    let path = inv.param("path").unwrap_or("");
    let deadline = inv.param("deadline").unwrap_or("");
    let mut text = format!("Globus Transfer request ({direction})\n");
    if !src.is_empty() {
        text.push_str(&format!("  Source endpoint:      {src}\n"));
    }
    if !dst.is_empty() {
        text.push_str(&format!("  Destination endpoint: {dst}\n"));
    }
    if !path.is_empty() {
        text.push_str(&format!("  Path:                 {path}\n"));
    }
    if !deadline.is_empty() {
        text.push_str(&format!("  Deadline:             {deadline}\n"));
    }
    text.push_str("  Status: submitted to Globus Online\n");
    vec![ToolOutput {
        name: "receipt".to_string(),
        dataset_name: format!("{direction} transfer request"),
        content: Content::new(ContentBody::Text(text)),
        size: None,
    }]
}

/// "GO Transfer" — third-party transfer between any two endpoints
/// (Figure 4's form: source endpoint, destination endpoint, paths,
/// deadline).
pub fn go_transfer_tool() -> ToolDefinition {
    ToolDefinition {
        id: "globus_go_transfer".to_string(),
        name: "GO Transfer".to_string(),
        version: "1.0".to_string(),
        description: "third party transfer between any Globus endpoints".to_string(),
        params: vec![
            endpoint_param("source_endpoint", "Source endpoint"),
            ParamSpec::text("path", "Source path", ""),
            endpoint_param("destination_endpoint", "Destination endpoint"),
            ParamSpec::text("destination_path", "Destination path", ""),
            ParamSpec::text("deadline", "Deadline (optional)", ""),
        ],
        outputs: vec![OutputSpec {
            name: "receipt".to_string(),
            dtype: "txt".to_string(),
        }],
        cost: SUBMIT_COST,
        behavior: Arc::new(|inv: &ToolInvocation| Ok(receipt(inv, "third-party"))),
    }
}

/// "Get Data via Globus Online" — the destination endpoint is the Galaxy
/// server itself.
pub fn get_data_tool() -> ToolDefinition {
    ToolDefinition {
        id: "globus_get_data".to_string(),
        name: "Get Data via Globus Online".to_string(),
        version: "1.0".to_string(),
        description: "upload to Galaxy from any Globus endpoint".to_string(),
        params: vec![
            endpoint_param("source_endpoint", "Endpoint"),
            ParamSpec::text("path", "Path", ""),
            ParamSpec::text("deadline", "Deadline (optional)", ""),
        ],
        outputs: vec![OutputSpec {
            name: "receipt".to_string(),
            dtype: "txt".to_string(),
        }],
        cost: SUBMIT_COST,
        behavior: Arc::new(|inv: &ToolInvocation| Ok(receipt(inv, "inbound"))),
    }
}

/// "Send Data via Globus Online" — the source endpoint is the Galaxy
/// server itself.
pub fn send_data_tool() -> ToolDefinition {
    ToolDefinition {
        id: "globus_send_data".to_string(),
        name: "Send Data via Globus Online".to_string(),
        version: "1.0".to_string(),
        description: "download from Galaxy to any Globus endpoint".to_string(),
        params: vec![
            ParamSpec::dataset("input", "History dataset to send"),
            endpoint_param("destination_endpoint", "Destination endpoint"),
            ParamSpec::text("destination_path", "Destination path", ""),
        ],
        outputs: vec![OutputSpec {
            name: "receipt".to_string(),
            dtype: "txt".to_string(),
        }],
        cost: SUBMIT_COST,
        behavior: Arc::new(|inv: &ToolInvocation| Ok(receipt(inv, "outbound"))),
    }
}

/// Register all three tools under the "Globus Online" section (what the
/// `galaxy-globus.rb` recipe does).
pub fn register_globus_tools(registry: &mut ToolRegistry) -> Result<(), RegistryError> {
    registry.register("Globus Online", go_transfer_tool())?;
    registry.register("Globus Online", get_data_tool())?;
    registry.register("Globus Online", send_data_tool())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn three_tools_register_under_globus_section() {
        let mut reg = ToolRegistry::new();
        register_globus_tools(&mut reg).unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(
            reg.tools_in("Globus Online"),
            vec!["globus_go_transfer", "globus_get_data", "globus_send_data"]
        );
    }

    #[test]
    fn go_transfer_form_matches_figure4() {
        // Figure 4 shows: Source endpoint, Destination endpoint, paths,
        // and a Deadline field.
        let form = go_transfer_tool().form_model();
        assert!(form.contains("GO Transfer"));
        assert!(form.contains("Source endpoint"));
        assert!(form.contains("Destination endpoint"));
        assert!(form.contains("Deadline"));
    }

    #[test]
    fn receipt_reflects_the_request() {
        let tool = go_transfer_tool();
        let mut params = BTreeMap::new();
        params.insert(
            "source_endpoint".to_string(),
            "galaxy#CVRG-Galaxy".to_string(),
        );
        params.insert(
            "path".to_string(),
            "/home/boliu/fourCelFileSamples.zip".to_string(),
        );
        params.insert(
            "destination_endpoint".to_string(),
            "cvrg#galaxy".to_string(),
        );
        let resolved = tool.resolve_params(&params).unwrap();
        let inv = ToolInvocation {
            params: resolved,
            inputs: BTreeMap::new(),
            input_size: cumulus_net::DataSize::ZERO,
        };
        let out = tool.behavior.run(&inv).unwrap();
        match out[0].content.body() {
            ContentBody::Text(text) => {
                assert!(text.contains("galaxy#CVRG-Galaxy"));
                assert!(text.contains("fourCelFileSamples.zip"));
                assert!(text.contains("submitted to Globus Online"));
            }
            other => panic!("expected text receipt, got {other:?}"),
        }
    }

    #[test]
    fn send_data_requires_a_dataset() {
        let tool = send_data_tool();
        let err = tool.resolve_params(&BTreeMap::new()).unwrap_err();
        assert!(err.0.contains("input"));
    }
}
