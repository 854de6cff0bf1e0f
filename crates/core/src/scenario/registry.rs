//! Type-erased scenario handles and the registry that enumerates them.

use super::{ProgressEvent, Scenario, ScenarioContext, ScenarioError};
use crate::experiments::ExperimentTable;
use serde_json::Value;
use std::sync::Arc;

/// The result of one type-erased scenario run: the rendered table plus the
/// full typed output as a `serde_json` value (what `--json` emits).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// The rendered report table.
    pub table: ExperimentTable,
    /// The scenario's typed output, serialised.
    pub output: Value,
}

/// Object-safe face of [`Scenario`]: configs and outputs cross the `dyn`
/// boundary as `serde_json` [`Value`]s, decoded onto the typed config inside
/// [`DynScenario::run_value`].
pub trait DynScenario: Send + Sync {
    /// Stable identifier (`"E1"` … `"E9"`).
    fn id(&self) -> &'static str;

    /// One-line human description.
    fn describe(&self) -> &'static str;

    /// The default (paper-scenario) config, serialised.
    fn default_config(&self) -> Value;

    /// Decodes `config` onto the typed config, validates it and runs the
    /// scenario. [`ProgressEvent::ScenarioStarted`] goes to `ctx`'s progress
    /// sink only once the config is accepted, so a rejected config emits no
    /// events.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Config`] when `config` does not decode or
    /// fails [`Scenario::validate`].
    fn run_value(
        &self,
        config: &Value,
        ctx: &mut ScenarioContext,
    ) -> Result<ScenarioRun, ScenarioError>;
}

impl dyn DynScenario + '_ {
    /// Runs the scenario with its default config and a silent context.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioError::Config`]; with a well-formed
    /// implementation the default config always decodes.
    pub fn run_default(&self) -> Result<ScenarioRun, ScenarioError> {
        let mut ctx = ScenarioContext::silent(self.id());
        self.run_value(&self.default_config(), &mut ctx)
    }
}

/// Adapter implementing [`DynScenario`] for any typed [`Scenario`].
struct Erased<S: Scenario>(S);

impl<S: Scenario> DynScenario for Erased<S> {
    fn id(&self) -> &'static str {
        self.0.id()
    }

    fn describe(&self) -> &'static str {
        self.0.describe()
    }

    fn default_config(&self) -> Value {
        serde_json::to_value(&S::Config::default())
    }

    fn run_value(
        &self,
        config: &Value,
        ctx: &mut ScenarioContext,
    ) -> Result<ScenarioRun, ScenarioError> {
        let config_error = |message: String| ScenarioError::Config {
            scenario: self.0.id().to_owned(),
            message,
        };
        let config: S::Config =
            serde_json::from_value(config).map_err(|err| config_error(err.to_string()))?;
        self.0.validate(&config).map_err(config_error)?;
        ctx.progress().on_event(&ProgressEvent::ScenarioStarted {
            scenario: self.0.id().to_owned(),
        });
        let output = self.0.run(&config, ctx);
        let output_value = serde_json::to_value(&output);
        Ok(ScenarioRun {
            table: output.into(),
            output: output_value,
        })
    }
}

/// An ordered collection of scenarios, addressable by identifier
/// (case-insensitively).
#[derive(Clone, Default)]
pub struct ScenarioRegistry {
    entries: Vec<Arc<dyn DynScenario>>,
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("ids", &self.ids())
            .finish()
    }
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Every registered scenario: the paper experiments E1 through E9 in
    /// paper order, followed by the full-array pipeline scenarios E10
    /// (concurrent sort), E11 (sustained throughput), E12 (closed-loop
    /// assay under sensor noise), E13 (programmable protocols) and E14
    /// (fault-injection sweep over the event-sourced pipeline).
    pub fn all() -> Self {
        use crate::experiments::*;
        let mut registry = Self::empty();
        registry.register(e1_scale::ScaleScenario);
        registry.register(e2_technology::TechnologyScenario);
        registry.register(e3_motion::MotionScenario);
        registry.register(e4_sensing::SensingScenario);
        registry.register(e5_designflow::DesignFlowScenario);
        registry.register(e6_fabrication::FabricationScenario);
        registry.register(e7_routing::RoutingScenario);
        registry.register(e8_centering::CenteringScenario);
        registry.register(e9_assay::AssayScenario);
        registry.register(e10_fullarray::FullArrayScenario);
        registry.register(e11_throughput::ThroughputScenario);
        registry.register(e12_closedloop::ClosedLoopScenario);
        registry.register(e13_protocols::ProtocolsScenario);
        registry.register(e14_faults::FaultsScenario);
        registry
    }

    /// Registers a typed scenario behind a trait object.
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same identifier (case-insensitively) is
    /// already registered — duplicate ids are a programming error.
    pub fn register<S: Scenario>(&mut self, scenario: S) {
        assert!(
            self.get(scenario.id()).is_none(),
            "duplicate scenario id `{}`",
            scenario.id()
        );
        self.entries.push(Arc::new(Erased(scenario)));
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn DynScenario>> {
        self.entries.iter()
    }

    /// Looks a scenario up by identifier, ignoring case and surrounding
    /// whitespace (`"e3"`, `"E3"`, `" e3 "` all match E3).
    pub fn get(&self, id: &str) -> Option<&Arc<dyn DynScenario>> {
        let id = id.trim();
        self.entries
            .iter()
            .find(|s| s.id().eq_ignore_ascii_case(id))
    }

    /// All identifiers in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.id()).collect()
    }

    /// The registry's identifier span, rendered `"E1..E14"` — derived
    /// from the actual registrations so user-facing messages can never
    /// drift when a new scenario lands.
    pub fn id_range(&self) -> String {
        match (self.entries.first(), self.entries.last()) {
            (Some(first), Some(last)) if first.id() != last.id() => {
                format!("{}..{}", first.id(), last.id())
            }
            (Some(only), _) => only.id().to_owned(),
            _ => "none registered".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enumerates_all_scenarios_in_order() {
        let registry = ScenarioRegistry::all();
        assert_eq!(
            registry.ids(),
            [
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
                "E14"
            ]
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let registry = ScenarioRegistry::all();
        assert_eq!(registry.get("e7").map(|s| s.id()), Some("E7"));
        assert_eq!(registry.get(" E7 ").map(|s| s.id()), Some("E7"));
        assert!(registry.get("E42").is_none());
    }

    #[test]
    fn default_configs_decode_and_run() {
        // E6 is the cheapest scenario; the full sweep lives in the
        // integration suite.
        let registry = ScenarioRegistry::all();
        let run = registry.get("E6").unwrap().run_default().unwrap();
        assert!(run.table.row_count() >= 1);
        assert!(!run.output.is_null());
    }

    #[test]
    #[should_panic(expected = "duplicate scenario id")]
    fn duplicate_ids_panic() {
        let mut registry = ScenarioRegistry::all();
        registry.register(crate::experiments::e6_fabrication::FabricationScenario);
    }
}
