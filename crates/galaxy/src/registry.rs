//! The tool registry (Galaxy's left-hand tool panel).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::tool::ToolDefinition;

/// The panel: sections of tools, each tool registered once by id. Tools
/// are held behind `Arc`s so the server can keep one across a call that
/// mutates it without copying the definition.
#[derive(Debug, Default)]
pub struct ToolRegistry {
    sections: Vec<(String, Vec<String>)>,
    tools: BTreeMap<String, Arc<ToolDefinition>>,
}

/// Registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A tool with this id already exists.
    Duplicate(String),
    /// No such tool.
    NotFound(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(id) => write!(f, "tool {id:?} already registered"),
            RegistryError::NotFound(id) => write!(f, "no such tool: {id:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl ToolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ToolRegistry::default()
    }

    /// Register a tool under a section (created on demand).
    pub fn register(&mut self, section: &str, tool: ToolDefinition) -> Result<(), RegistryError> {
        if self.tools.contains_key(&tool.id) {
            return Err(RegistryError::Duplicate(tool.id.clone()));
        }
        let section_entry = match self.sections.iter_mut().find(|(n, _)| n == section) {
            Some(e) => e,
            None => {
                self.sections.push((section.to_string(), Vec::new()));
                self.sections.last_mut().expect("just pushed")
            }
        };
        section_entry.1.push(tool.id.clone());
        self.tools.insert(tool.id.clone(), Arc::new(tool));
        Ok(())
    }

    /// Look up a tool by id.
    pub fn tool(&self, id: &str) -> Result<&ToolDefinition, RegistryError> {
        self.shared(id).map(|t| &**t)
    }

    /// Look up a tool by id, as a handle that outlives the borrow.
    pub(crate) fn shared(&self, id: &str) -> Result<&Arc<ToolDefinition>, RegistryError> {
        self.tools
            .get(id)
            .ok_or_else(|| RegistryError::NotFound(id.to_string()))
    }

    /// All section names, in registration order.
    pub fn sections(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Tool ids within a section.
    pub fn tools_in(&self, section: &str) -> Vec<&str> {
        self.sections
            .iter()
            .find(|(n, _)| n == section)
            .map(|(_, ids)| ids.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Total registered tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Render the tool panel.
    pub fn panel(&self) -> String {
        let mut out = String::new();
        for (section, ids) in &self.sections {
            out.push_str(&format!("{section}\n"));
            for id in ids {
                let t = &self.tools[id];
                out.push_str(&format!("  {} — {}\n", t.name, t.description));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::{CostModel, ToolInvocation, ToolOutput};
    use std::sync::Arc;

    fn dummy(id: &str) -> ToolDefinition {
        ToolDefinition {
            id: id.to_string(),
            name: id.to_uppercase(),
            version: "1.0".to_string(),
            description: format!("{id} tool"),
            params: vec![],
            outputs: vec![],
            cost: CostModel::LIGHT,
            behavior: Arc::new(|_: &ToolInvocation| Ok(Vec::<ToolOutput>::new())),
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = ToolRegistry::new();
        reg.register("Get Data", dummy("upload_http")).unwrap();
        reg.register("Get Data", dummy("upload_ftp")).unwrap();
        reg.register("CRData", dummy("heatmap")).unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.sections(), vec!["Get Data", "CRData"]);
        assert_eq!(reg.tools_in("Get Data"), vec!["upload_http", "upload_ftp"]);
        assert!(reg.tool("heatmap").is_ok());
        assert!(matches!(
            reg.tool("ghost").unwrap_err(),
            RegistryError::NotFound(_)
        ));
    }

    #[test]
    fn duplicate_ids_rejected_across_sections() {
        let mut reg = ToolRegistry::new();
        reg.register("A", dummy("x")).unwrap();
        assert!(matches!(
            reg.register("B", dummy("x")).unwrap_err(),
            RegistryError::Duplicate(_)
        ));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn panel_lists_tools() {
        let mut reg = ToolRegistry::new();
        reg.register("Globus Online", dummy("go_transfer")).unwrap();
        let panel = reg.panel();
        assert!(panel.contains("Globus Online"));
        assert!(panel.contains("GO_TRANSFER"));
    }

    #[test]
    fn unknown_section_is_empty() {
        let reg = ToolRegistry::new();
        assert!(reg.tools_in("nope").is_empty());
        assert!(reg.is_empty());
    }
}
