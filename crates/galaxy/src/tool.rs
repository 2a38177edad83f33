//! Tool definitions.
//!
//! "A tool can be any piece of software for which a command line invocation
//! can be constructed" (§II.3). A cumulus tool definition carries the same
//! information a Galaxy tool XML does — typed parameters from which a web
//! form is generated, a command template, and output declarations — plus
//! two things the simulator needs: a *cost model* (how long execution takes
//! as a function of input size) and a *behavior* (the real Rust function
//! that computes the outputs).

use std::collections::BTreeMap;
use std::sync::Arc;

use cumulus_htc::WorkSpec;
use cumulus_net::DataSize;

use crate::dataset::Content;

/// A parameter's type, mirroring Galaxy's form field kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// Free text.
    Text,
    /// Integer with optional bounds.
    Integer {
        /// Minimum allowed.
        min: Option<i64>,
        /// Maximum allowed.
        max: Option<i64>,
    },
    /// Float.
    Float,
    /// One of a fixed set of options.
    Select {
        /// Allowed options.
        options: Vec<String>,
    },
    /// A dataset from the user's history.
    DatasetInput,
    /// Checkbox.
    Boolean,
}

/// A declared parameter.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Name used in bindings.
    pub name: String,
    /// Form label.
    pub label: String,
    /// Type.
    pub kind: ParamKind,
    /// Whether the form requires a value.
    pub required: bool,
    /// Default, if any.
    pub default: Option<String>,
}

impl ParamSpec {
    /// A required dataset-input parameter.
    pub fn dataset(name: &str, label: &str) -> ParamSpec {
        ParamSpec {
            name: name.to_string(),
            label: label.to_string(),
            kind: ParamKind::DatasetInput,
            required: true,
            default: None,
        }
    }

    /// An optional text parameter with a default.
    pub fn text(name: &str, label: &str, default: &str) -> ParamSpec {
        ParamSpec {
            name: name.to_string(),
            label: label.to_string(),
            kind: ParamKind::Text,
            required: false,
            default: Some(default.to_string()),
        }
    }

    /// A select parameter.
    pub fn select(name: &str, label: &str, options: &[&str], default: &str) -> ParamSpec {
        ParamSpec {
            name: name.to_string(),
            label: label.to_string(),
            kind: ParamKind::Select {
                options: options.iter().map(|s| s.to_string()).collect(),
            },
            required: false,
            default: Some(default.to_string()),
        }
    }

    /// An integer parameter.
    pub fn integer(
        name: &str,
        label: &str,
        default: i64,
        min: Option<i64>,
        max: Option<i64>,
    ) -> ParamSpec {
        ParamSpec {
            name: name.to_string(),
            label: label.to_string(),
            kind: ParamKind::Integer { min, max },
            required: false,
            default: Some(default.to_string()),
        }
    }

    /// A float parameter.
    pub fn float(name: &str, label: &str, default: f64) -> ParamSpec {
        ParamSpec {
            name: name.to_string(),
            label: label.to_string(),
            kind: ParamKind::Float,
            required: false,
            default: Some(default.to_string()),
        }
    }

    /// Validate one provided value against this spec.
    pub fn validate(&self, value: &str) -> Result<(), String> {
        match &self.kind {
            ParamKind::Text | ParamKind::DatasetInput => Ok(()),
            ParamKind::Integer { min, max } => {
                let v: i64 = value
                    .parse()
                    .map_err(|_| format!("{}: {value:?} is not an integer", self.name))?;
                if let Some(min) = min {
                    if v < *min {
                        return Err(format!("{}: {v} < min {min}", self.name));
                    }
                }
                if let Some(max) = max {
                    if v > *max {
                        return Err(format!("{}: {v} > max {max}", self.name));
                    }
                }
                Ok(())
            }
            ParamKind::Float => value
                .parse::<f64>()
                .map(|_| ())
                .map_err(|_| format!("{}: {value:?} is not a number", self.name)),
            ParamKind::Select { options } => {
                if options.iter().any(|o| o == value) {
                    Ok(())
                } else {
                    Err(format!("{}: {value:?} not in {:?}", self.name, options))
                }
            }
            ParamKind::Boolean => match value {
                "true" | "false" | "yes" | "no" => Ok(()),
                _ => Err(format!("{}: {value:?} is not a boolean", self.name)),
            },
        }
    }
}

/// A declared output.
#[derive(Debug, Clone)]
pub struct OutputSpec {
    /// Output name.
    pub name: String,
    /// Datatype extension of the produced dataset.
    pub dtype: String,
}

/// How long a tool takes: `serial + per_mb × input_MB` seconds of
/// compute-unit work (the Amdahl decomposition from DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed startup seconds (R interpreter + library loading for CRData
    /// tools).
    pub serial_secs: f64,
    /// Compute-unit-seconds per input megabyte.
    pub secs_per_mb: f64,
}

impl CostModel {
    /// The calibrated CRData R-tool cost model: 112 s of startup plus
    /// ≈ 2.08 CU·s per MB reproduces the paper's Figure 10 execution
    /// times for the 10.7 MB + 190.3 MB payload.
    pub const CRDATA_R: CostModel = CostModel {
        serial_secs: 112.0,
        secs_per_mb: 2.0796,
    };

    /// A fast text-manipulation tool.
    pub const LIGHT: CostModel = CostModel {
        serial_secs: 2.0,
        secs_per_mb: 0.05,
    };

    /// The work spec for a given input size.
    pub fn work(&self, input: DataSize) -> WorkSpec {
        WorkSpec {
            serial_secs: self.serial_secs,
            cu_work: self.secs_per_mb * input.as_mb_f64(),
        }
    }
}

/// Everything a behavior gets to see when it runs.
///
/// The inputs are borrowed from the server's datasets for the length of
/// the run: a behavior reads them and builds its outputs, so the server
/// never copies an input's content to invoke a tool.
#[derive(Debug, Clone)]
pub struct ToolInvocation<'a> {
    /// Resolved value parameters (defaults filled in). Dataset references
    /// such as `input=dataset-42` are not here: their contents arrive
    /// through `inputs`, so the invocation names what a run computes on,
    /// not where it came from. Job records and provenance keep the full
    /// resolved parameters.
    pub params: BTreeMap<String, String>,
    /// Input dataset contents, keyed by parameter name, borrowed from the
    /// datasets they belong to.
    pub inputs: BTreeMap<String, &'a Content>,
    /// Total input size (drives the cost model).
    pub input_size: DataSize,
}

impl<'a> ToolInvocation<'a> {
    /// Fetch a parameter (validated + defaulted by the server).
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// Fetch an input's content.
    pub fn input(&self, name: &str) -> Option<&'a Content> {
        self.inputs.get(name).copied()
    }
}

/// One produced output.
#[derive(Debug, Clone)]
pub struct ToolOutput {
    /// Which declared output this is.
    pub name: String,
    /// Display name for the history panel.
    pub dataset_name: String,
    /// The real content.
    pub content: Content,
    /// Declared size override (None ⇒ use the content's natural size).
    pub size: Option<DataSize>,
}

/// Tool execution failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolError(pub String);

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tool error: {}", self.0)
    }
}

impl std::error::Error for ToolError {}

/// A tool's returned outputs disagree with its declared outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputMismatch {
    /// A declared output the tool did not return.
    Missing(String),
    /// A returned output the tool does not declare.
    Undeclared(String),
    /// An output the tool returned more than once.
    Duplicate(String),
}

impl std::fmt::Display for OutputMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutputMismatch::Missing(name) => write!(f, "tool returned no {name:?} output"),
            OutputMismatch::Undeclared(name) => {
                write!(f, "tool returned undeclared output {name:?}")
            }
            OutputMismatch::Duplicate(name) => write!(f, "tool returned {name:?} twice"),
        }
    }
}

impl std::error::Error for OutputMismatch {}

/// The real computation behind a tool.
pub trait ToolBehavior: Send + Sync {
    /// Produce the outputs from the invocation.
    ///
    /// The result must be a deterministic function of the invocation:
    /// the server runs each distinct invocation once and hands later
    /// identical ones a copy of the stored outputs.
    fn run(&self, invocation: &ToolInvocation) -> Result<Vec<ToolOutput>, ToolError>;
}

impl<F> ToolBehavior for F
where
    F: Fn(&ToolInvocation) -> Result<Vec<ToolOutput>, ToolError> + Send + Sync,
{
    fn run(&self, invocation: &ToolInvocation) -> Result<Vec<ToolOutput>, ToolError> {
        self(invocation)
    }
}

/// A complete tool definition.
#[derive(Clone)]
pub struct ToolDefinition {
    /// Unique id, e.g. `crdata_affyDifferentialExpression`.
    pub id: String,
    /// Display name.
    pub name: String,
    /// Version string.
    pub version: String,
    /// One-line description for the tool panel.
    pub description: String,
    /// Parameters.
    pub params: Vec<ParamSpec>,
    /// Outputs.
    pub outputs: Vec<OutputSpec>,
    /// Cost model.
    pub cost: CostModel,
    /// The computation.
    pub behavior: Arc<dyn ToolBehavior>,
}

impl std::fmt::Debug for ToolDefinition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolDefinition")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("version", &self.version)
            .field("params", &self.params.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

impl ToolDefinition {
    /// Resolve and validate user-supplied parameters: defaults are filled
    /// in, unknown names rejected, required parameters enforced, and each
    /// value type-checked.
    pub fn resolve_params(
        &self,
        provided: &BTreeMap<String, String>,
    ) -> Result<BTreeMap<String, String>, ToolError> {
        for name in provided.keys() {
            if !self.params.iter().any(|p| &p.name == name) {
                return Err(ToolError(format!(
                    "unknown parameter {name:?} for tool {}",
                    self.id
                )));
            }
        }
        let mut resolved = BTreeMap::new();
        for spec in &self.params {
            match provided.get(&spec.name) {
                Some(value) => {
                    spec.validate(value).map_err(ToolError)?;
                    resolved.insert(spec.name.clone(), value.clone());
                }
                None => match (&spec.default, spec.required) {
                    (Some(d), _) => {
                        resolved.insert(spec.name.clone(), d.clone());
                    }
                    (None, true) => {
                        return Err(ToolError(format!(
                            "missing required parameter {:?}",
                            spec.name
                        )))
                    }
                    (None, false) => {}
                },
            }
        }
        Ok(resolved)
    }

    /// The rendered form model (what Galaxy auto-generates as a web UI).
    pub fn form_model(&self) -> String {
        let mut out = format!(
            "Tool: {} (v{})\n{}\n",
            self.name, self.version, self.description
        );
        for p in &self.params {
            let kind = match &p.kind {
                ParamKind::Text => "text".to_string(),
                ParamKind::Integer { .. } => "integer".to_string(),
                ParamKind::Float => "float".to_string(),
                ParamKind::Select { options } => format!("select{options:?}"),
                ParamKind::DatasetInput => "dataset".to_string(),
                ParamKind::Boolean => "boolean".to_string(),
            };
            out.push_str(&format!(
                "  {} [{}{}]: {}\n",
                p.label,
                kind,
                if p.required { ", required" } else { "" },
                p.default.as_deref().unwrap_or("-"),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_tool() -> ToolDefinition {
        ToolDefinition {
            id: "echo".to_string(),
            name: "Echo".to_string(),
            version: "1.0".to_string(),
            description: "writes its text param".to_string(),
            params: vec![
                ParamSpec::text("text", "Text", "hi"),
                ParamSpec::dataset("input", "Input dataset"),
                ParamSpec::integer("count", "Count", 1, Some(0), Some(10)),
                ParamSpec::select("mode", "Mode", &["fast", "slow"], "fast"),
            ],
            outputs: vec![OutputSpec {
                name: "out".to_string(),
                dtype: "txt".to_string(),
            }],
            cost: CostModel::LIGHT,
            behavior: Arc::new(|inv: &ToolInvocation| {
                Ok(vec![ToolOutput {
                    name: "out".to_string(),
                    dataset_name: "echo output".to_string(),
                    content: Content::Text(inv.param("text").unwrap_or("").to_string()),
                    size: None,
                }])
            }),
        }
    }

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn defaults_fill_in() {
        let tool = echo_tool();
        let resolved = tool
            .resolve_params(&params(&[("input", "dataset-1")]))
            .unwrap();
        assert_eq!(resolved.get("text").map(String::as_str), Some("hi"));
        assert_eq!(resolved.get("count").map(String::as_str), Some("1"));
        assert_eq!(resolved.get("mode").map(String::as_str), Some("fast"));
    }

    #[test]
    fn required_params_enforced() {
        let tool = echo_tool();
        let err = tool.resolve_params(&params(&[])).unwrap_err();
        assert!(err.0.contains("input"));
    }

    #[test]
    fn unknown_params_rejected() {
        let tool = echo_tool();
        let err = tool
            .resolve_params(&params(&[("input", "x"), ("bogus", "1")]))
            .unwrap_err();
        assert!(err.0.contains("bogus"));
    }

    #[test]
    fn integer_bounds_checked() {
        let tool = echo_tool();
        assert!(tool
            .resolve_params(&params(&[("input", "x"), ("count", "11")]))
            .is_err());
        assert!(tool
            .resolve_params(&params(&[("input", "x"), ("count", "-1")]))
            .is_err());
        assert!(tool
            .resolve_params(&params(&[("input", "x"), ("count", "ten")]))
            .is_err());
        assert!(tool
            .resolve_params(&params(&[("input", "x"), ("count", "10")]))
            .is_ok());
    }

    #[test]
    fn select_options_checked() {
        let tool = echo_tool();
        assert!(tool
            .resolve_params(&params(&[("input", "x"), ("mode", "warp")]))
            .is_err());
    }

    #[test]
    fn cost_model_arithmetic() {
        let w = CostModel::CRDATA_R.work(DataSize::from_mb_f64(10.7));
        assert_eq!(w.serial_secs, 112.0);
        assert!((w.cu_work - 2.0796 * 10.7).abs() < 1e-9);
        // Both paper datasets on m1.small ≈ 10.7 minutes.
        let w1 = CostModel::CRDATA_R.work(DataSize::from_mb_f64(10.7));
        let w2 = CostModel::CRDATA_R.work(DataSize::from_mb_f64(190.3));
        let total_mins =
            (w1.duration_on(1.0).as_secs_f64() + w2.duration_on(1.0).as_secs_f64()) / 60.0;
        assert!((total_mins - 10.7).abs() < 0.1, "total={total_mins}");
    }

    #[test]
    fn behavior_runs() {
        let tool = echo_tool();
        let inv = ToolInvocation {
            params: params(&[("text", "hello")]),
            inputs: BTreeMap::new(),
            input_size: DataSize::ZERO,
        };
        let outs = tool.behavior.run(&inv).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].content, Content::Text("hello".to_string()));
    }

    #[test]
    fn form_model_mentions_params() {
        let form = echo_tool().form_model();
        assert!(form.contains("Echo"));
        assert!(form.contains("Count"));
        assert!(form.contains("required"));
    }

    #[test]
    fn float_and_bool_validation() {
        let f = ParamSpec::float("x", "X", 0.05);
        assert!(f.validate("0.1").is_ok());
        assert!(f.validate("oops").is_err());
        let b = ParamSpec {
            name: "flag".to_string(),
            label: "Flag".to_string(),
            kind: ParamKind::Boolean,
            required: false,
            default: Some("false".to_string()),
        };
        assert!(b.validate("true").is_ok());
        assert!(b.validate("maybe").is_err());
    }
}
