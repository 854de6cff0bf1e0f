//! Property tests of the sharded fleet (E16): for any seed, noise level,
//! recovery policy and shard grid, a sharded run is bit-identical to the
//! monolithic run — and killing any shard worker of the job group at any
//! phase boundary, then resuming, lands on the uninterrupted group's
//! hashes.
//!
//! These are the tentpole equivalence oracles, property-swept:
//!
//! * the sharded run's *global* journal is byte-identical to the
//!   monolithic journal (the mirror never feeds back into the global
//!   algorithm);
//! * the per-shard journals — cross-shard handoff events included —
//!   replay through the ordinary [`replay`] oracle to the live shard
//!   states, and the shards compose back to the monolithic state hash;
//! * the farm's [`ShardGroup`] (one worker per shard, barrier rendezvous
//!   at phase boundaries) reproduces every live shard hash, survives a
//!   kill of *any* worker at *any* interior boundary, and resumes from
//!   the whole-group checkpoint bit-identically.
//!
//! [`replay`]: labchip_manipulation::journal::replay

use labchip::workload::{BatchDriver, Protocol, RecoveryPolicy, WorkloadConfig};
use labchip_farm::{GroupKill, ShardGroup};
use labchip_manipulation::fleet::{FleetTopology, ShardedState};
use labchip_units::GridDims;
use proptest::prelude::*;

fn workload(seed: u64, noise_scale: f64, recovery_rounds: u32) -> WorkloadConfig {
    WorkloadConfig {
        array_side: 32,
        noise_scale,
        detection_frames: 2,
        recovery: RecoveryPolicy {
            max_rounds: recovery_rounds,
            rescan_factor: 2,
        },
        seed,
        ..WorkloadConfig::default()
    }
}

fn canned(config: &WorkloadConfig, particles: usize) -> Protocol {
    Protocol::canned_cycle(
        GridDims::square(config.array_side),
        config.min_separation,
        particles,
    )
}

const GRIDS: [(u32, u32); 3] = [(1, 1), (2, 1), (2, 2)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_seed_noise_recovery_and_grid_replays_to_the_monolithic_hash(
        seed in 0u64..1_000,
        noisy in 0u8..2,
        recovery_rounds in 0u32..3,
        grid_choice in 0usize..GRIDS.len(),
    ) {
        let config = workload(seed, if noisy == 0 { 0.0 } else { 6.0 }, recovery_rounds);
        let protocol = canned(&config, 20);
        let driver = BatchDriver::new(config);
        let (baseline, baseline_journal) = driver.runner().run_journaled(&protocol, 0);

        let (cols, rows) = GRIDS[grid_choice];
        let dims = GridDims::square(config.array_side);
        let sep = config.min_separation.max(1);
        let fleet = ShardedState::new(FleetTopology::new(dims, sep, cols, rows).unwrap());
        let (outcome, journal, fleet) = driver.runner().run_sharded(&protocol, 0, fleet);

        // The global run never notices the mirror.
        prop_assert_eq!(journal.events(), baseline_journal.events());
        prop_assert_eq!(outcome.state.state_hash(), baseline.state.state_hash());

        // The shards compose back to the monolithic state, and every
        // shard journal replays to its live shard — handoffs included.
        prop_assert_eq!(
            fleet.compose().state_hash(),
            baseline.state.state_hash(),
            "grid {}x{} composed to a different state", cols, rows
        );
        let fleet_outcome = fleet.into_outcome();
        prop_assert_eq!(fleet_outcome.replay_divergences(), 0);
        let total: usize = fleet_outcome
            .states
            .iter()
            .map(|state| state.particle_count())
            .sum();
        prop_assert_eq!(total, baseline.state.particle_count());
    }

    #[test]
    fn killing_any_shard_worker_then_resuming_matches_the_uninterrupted_group(
        seed in 0u64..1_000,
        grid_choice in 1usize..GRIDS.len(),
        kill_shard in 0usize..4,
        kill_boundary in 1usize..8,
    ) {
        let config = workload(seed, 4.0, 1);
        let protocol = canned(&config, 16);
        let (cols, rows) = GRIDS[grid_choice];
        let group = ShardGroup::plan(&config, &protocol, cols, rows).unwrap();

        let expected = group.expected_hashes();
        let uninterrupted = group.run();
        prop_assert_eq!(uninterrupted.segments_folded, group.segment_count());
        prop_assert_eq!(uninterrupted.state_hashes(), expected.clone());

        let kill = GroupKill {
            shard: kill_shard % group.shard_count(),
            boundary: kill_boundary.clamp(1, group.segment_count() - 1),
        };
        let (stopped, checkpoint) = group.run_killed(kill);
        prop_assert_eq!(stopped.segments_folded, kill.boundary);
        prop_assert!(stopped.segments_folded < group.segment_count());

        // The whole-group checkpoint survives JSON and resumes to the
        // uninterrupted hashes.
        let restored = labchip_farm::GroupCheckpoint::from_json(&checkpoint.to_json())
            .expect("group checkpoints round trip");
        let resumed = group.resume(&restored);
        prop_assert_eq!(resumed.segments_folded, group.segment_count());
        prop_assert_eq!(resumed.state_hashes(), expected);
    }
}
