//! Integration: the scenario engine end to end — registry coverage, bulk
//! runs through the `Runner`, typed `key=value` overrides, the single JSON
//! document behind `report run --all --json`, and streamed telemetry
//! (including simulator step batches bridged from the step-observer hook).

use labchip::scenario::{
    outcomes_to_json, CollectingProgress, ProgressEvent, Runner, ScenarioError, ScenarioRegistry,
};
use serde_json::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Overrides that shrink the heavy sweeps without changing any scenario's
/// shape — applied across the full registry so `--all` style runs stay fast
/// in debug builds.
fn quick_runner() -> Runner {
    let mut runner = Runner::new(ScenarioRegistry::all());
    for spec in [
        "sides=[64,320]",            // E1: two array sizes still cover the paper point
        "speeds_um_s=[25.0,5000.0]", // E3: one tracked and one untracked speed
        "travel_steps=3",            // E3
        "trials=150",                // E4 + E5 Monte-Carlo trial counts
        "frame_counts=[1,16]",       // E4
        "particle_counts=[8]",       // E7
        "array_side=16",             // E2 + E3 + E7 + E9 + E10 + E11 + E12 region
        "particles=40",              // E10 (clamped to the tiny array)
        "density_steps=[1.0]",       // E10: one sweep point
        "astar_cap=8",               // E10: tiny A* subsample
        "astar_max_steps=128",       // E10
        "particles_per_cycle=10",    // E11
        "cycles=1",                  // E11
        "noise_scales=[0.0,6.0]",    // E12: one quiet and one loud point
        "kill_points=4",             // E14: a token fault sweep
    ] {
        runner.set_override(spec).expect("spec is well-formed");
    }
    runner
}

#[test]
fn registry_ids_are_unique_and_default_runs_produce_rows() {
    let registry = ScenarioRegistry::all();
    assert!(registry.len() >= 14, "core scenarios must not disappear");
    let unique: HashSet<&str> = registry.iter().map(|s| s.id()).collect();
    assert_eq!(unique.len(), registry.len(), "scenario ids must be unique");

    // Cheap scenarios run their untouched paper defaults here; the full
    // default sweep of every scenario is what `report run --all` does in CI.
    for id in ["E2", "E4", "E5", "E6", "E8"] {
        let run = registry
            .get(id)
            .expect("id registered")
            .run_default()
            .expect("default config decodes");
        assert!(run.table.row_count() >= 1, "{id} produced no rows");
        assert!(!run.output.is_null());
    }
}

#[test]
fn run_all_covers_the_whole_registry_and_emits_one_valid_json_document() {
    // Expectations derive from the registry itself — registering E15+ in
    // core must not require editing this test.
    let expected: Vec<String> = ScenarioRegistry::all()
        .iter()
        .map(|s| s.id().to_owned())
        .collect();
    let outcomes = quick_runner().run_all().expect("bulk run succeeds");
    let ids: Vec<&str> = outcomes.iter().map(|o| o.id.as_str()).collect();
    assert_eq!(ids, expected);
    for outcome in &outcomes {
        assert!(
            outcome.table.row_count() >= 1,
            "{} produced no rows",
            outcome.id
        );
    }

    // The document `report run --all --json` prints: one parseable JSON
    // text covering every scenario, tables included.
    let document = outcomes_to_json(&outcomes);
    let text = serde_json::to_string_pretty(&document);
    let parsed: Value = serde_json::from_str(&text).expect("document is valid JSON");
    let scenarios = parsed
        .as_object()
        .and_then(|o| o.get("scenarios"))
        .and_then(Value::as_array)
        .expect("document has a scenarios array");
    assert_eq!(scenarios.len(), outcomes.len());
    for (entry, outcome) in scenarios.iter().zip(&outcomes) {
        let entry = entry.as_object().unwrap();
        assert_eq!(entry.get("id").unwrap().as_str(), Some(outcome.id.as_str()));
        assert!(entry.get("config").unwrap().as_object().is_some());
        assert!(entry.get("table").unwrap().as_object().is_some());
    }
}

#[test]
fn typed_overrides_round_trip_onto_configs() {
    // `report run e3 --set threads=2`: the override lands in the typed
    // config (visible in the outcome's serialised config) and the run
    // still produces the narrative result.
    let mut runner = Runner::new(ScenarioRegistry::all());
    for spec in [
        "threads=2",
        "speeds_um_s=[50.0]",
        "travel_steps=3",
        "array_side=16",
    ] {
        runner.set_override(spec).unwrap();
    }
    let outcomes = runner.run(&["e3"]).unwrap();
    let config = outcomes[0].config.as_object().unwrap();
    assert_eq!(config.get("threads").unwrap().as_u64(), Some(2));
    assert_eq!(outcomes[0].table.row_count(), 1);

    // A wrong-typed value is rejected with the scenario named.
    let mut bad = Runner::new(ScenarioRegistry::all());
    bad.set_override("threads=not-a-number").unwrap();
    let err = bad.run(&["e3"]).unwrap_err().to_string();
    assert!(err.contains("E3"), "error should name the scenario: {err}");
}

#[test]
fn progress_stream_includes_rows_and_simulator_step_batches() {
    let progress = Arc::new(CollectingProgress::new());
    let mut runner = Runner::new(ScenarioRegistry::all());
    for spec in [
        "speeds_um_s=[25.0,5000.0]",
        "travel_steps=3",
        "array_side=16",
    ] {
        runner.set_override(spec).unwrap();
    }
    runner.set_parallel(false);
    runner.set_progress(progress.clone());
    runner.run(&["e3"]).unwrap();

    let events = progress.events_for("E3");
    assert!(matches!(
        events.first(),
        Some(ProgressEvent::ScenarioStarted { .. })
    ));
    assert!(matches!(
        events.last(),
        Some(ProgressEvent::ScenarioFinished { .. })
    ));
    let rows = events
        .iter()
        .filter(|e| matches!(e, ProgressEvent::Row { .. }))
        .count();
    assert_eq!(rows, 2, "one row per configured speed");
    // The ChipSimulator step-observer hook feeds the same stream.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::SimSteps { .. })),
        "expected simulator step telemetry in the progress stream"
    );
}

#[test]
fn base_seed_changes_stochastic_outputs_deterministically() {
    let seeded = |seed: u64| {
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_base_seed(seed);
        runner.run(&["e8"]).unwrap().remove(0)
    };
    let a = seeded(1);
    let b = seeded(1);
    let c = seeded(2);
    assert_eq!(a.output, b.output, "same base seed, same output");
    assert_eq!(a.seed, b.seed);
    assert_ne!(a.seed, c.seed, "different base seed derives a new seed");
}

#[test]
fn a_shard_grid_that_does_not_fit_is_a_config_error_not_a_panic() {
    // `report run e16 --set array_side=8 --set particles=4 --set
    // "grids=[[9,1]]"`: the grid is checked by the scenario's `validate`
    // right after decoding, before anything runs.
    for grids in ["grids=[[9,1]]", "grids=[[0,1]]"] {
        let mut runner = Runner::new(labchip_farm::full_registry());
        for spec in ["array_side=8", "particles=4", grids] {
            runner.set_override(spec).unwrap();
        }
        match runner.run(&["e16"]).unwrap_err() {
            ScenarioError::Config { scenario, message } => {
                assert_eq!(scenario, "E16");
                assert!(message.contains("grids"), "{message}");
                assert!(message.contains("8x8"), "{message}");
            }
            other => panic!("{grids}: expected a config error, got {other:?}"),
        }
    }
}

#[test]
fn a_rejected_config_emits_no_progress_events() {
    // `report run e16 --set "grids=[[9,1]]"` must not print `[E16] started`
    // before the config error: validation runs before the run starts.
    let progress = Arc::new(CollectingProgress::new());
    let mut runner = Runner::new(labchip_farm::full_registry());
    runner.set_parallel(false);
    runner.set_progress(progress.clone());
    for spec in ["array_side=8", "particles=4", "grids=[[9,1]]"] {
        runner.set_override(spec).unwrap();
    }
    assert!(matches!(
        runner.run(&["e16"]).unwrap_err(),
        ScenarioError::Config { .. }
    ));
    assert_eq!(progress.events(), Vec::new());
}

#[test]
fn a_zero_sized_e10_array_is_a_config_error_not_a_hang() {
    // `report run e10 --set array_side=0 --set particles=4` used to spin
    // forever placing particles on an empty array.
    let mut runner = Runner::new(ScenarioRegistry::all());
    for spec in ["array_side=0", "particles=4"] {
        runner.set_override(spec).unwrap();
    }
    match runner.run(&["e10"]).unwrap_err() {
        ScenarioError::Config { scenario, message } => {
            assert_eq!(scenario, "E10");
            assert!(message.contains("array_side"), "{message}");
        }
        other => panic!("expected a config error, got {other:?}"),
    }
}
