//! A sharded chip as a farm job group: one worker per shard, barrier
//! rendezvous at phase-window boundaries, whole-group checkpoint/resume.
//!
//! The fleet layer ([`labchip_manipulation::fleet`]) decomposes one
//! logical array into per-shard [`ChipState`]s and journals every shard's
//! events — including the typed cross-shard handoffs — through the same
//! choke points the monolithic chip uses. This module executes that
//! decomposition the way the farm executes everything else: as a group of
//! workers folding event streams.
//!
//! ## Execution model
//!
//! [`ShardGroup::plan`] runs the sharded protocol once on the coordinator
//! (the [`ProtocolRunner::run_sharded`](labchip::workload::ProtocolRunner::run_sharded)
//! entry point) and keeps the per-shard journals, split into one segment
//! per protocol phase at the broadcast phase markers. [`ShardGroup::run`]
//! then spawns **one worker thread per shard**; each worker folds its
//! shard's segments through the shared
//! [`apply_event`] replay step into a replica
//! shard state, and all workers rendezvous on a [`Barrier`] at every
//! phase boundary — no shard starts phase `k + 1` until every shard has
//! finished phase `k`, mirroring how a physical multi-chip fleet must
//! synchronise before particles cross chip edges.
//!
//! ## Kill and resume
//!
//! [`ShardGroup::run_killed`] kills **any one** shard worker at a chosen
//! boundary. Because the barrier makes boundaries group-wide, the whole
//! group stops there in a consistent state, captured as a
//! JSON-serialisable [`GroupCheckpoint`] (boundary index + per-shard
//! snapshots).
//! [`ShardGroup::resume`] restores every shard from the checkpoint and
//! folds the remaining segments; the final per-shard hashes are
//! **bit-identical** to an uninterrupted group run — the E16
//! group-recovery guarantee, extending the per-job guarantee of E14/E15
//! to a gang of coupled workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use labchip::workload::{BatchDriver, Protocol, WorkloadConfig};
use labchip_manipulation::fleet::{FleetOutcome, FleetStats, FleetTopology, ShardedState};
use labchip_manipulation::journal::{apply_event, Event, Journal};
use labchip_manipulation::state::{ChipState, ChipStateSnapshot};
use labchip_manipulation::ManipulationError;
use labchip_units::GridDims;
use serde::{Deserialize, Serialize};

/// Kill one shard worker of a group at a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupKill {
    /// Which shard's worker dies.
    pub shard: usize,
    /// The boundary it dies at: the worker folds this many phase segments
    /// and exits at the rendezvous. Must be in `1..segment_count` — a
    /// worker cannot die before the first barrier or after the last.
    pub boundary: usize,
}

/// A consistent whole-group resume point: every shard's state at one
/// phase boundary. JSON-serialisable like the per-job
/// [`Checkpoint`](labchip::workload::Checkpoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupCheckpoint {
    /// Index of the next phase segment every worker folds on resume.
    pub next_segment: usize,
    /// Per-shard replica states at the boundary.
    pub shards: Vec<ChipStateSnapshot>,
}

impl GroupCheckpoint {
    /// Serializes the group checkpoint to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self)
    }

    /// Parses a group checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// The result of a (possibly resumed) group run: the replica shard states
/// and how many phase segments every worker folded.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Final replica state of every shard, in shard order.
    pub states: Vec<ChipState>,
    /// Phase segments each worker folded (group-wide, by barrier).
    pub segments_folded: usize,
}

impl GroupOutcome {
    /// Per-shard state hashes, in shard order.
    pub fn state_hashes(&self) -> Vec<u64> {
        self.states.iter().map(ChipState::state_hash).collect()
    }
}

/// A planned sharded run held as a farm job group: per-shard journals
/// split at phase boundaries, ready to execute with one worker per shard.
#[derive(Debug)]
pub struct ShardGroup {
    outcome: FleetOutcome,
    /// Per shard: segment bounds into the journal, `segments + 1` long.
    bounds: Vec<Vec<usize>>,
    /// Phase segments between barriers (equal across shards: markers are
    /// broadcast).
    segments: usize,
    /// State hash of the coordinator's global (monolithic-equivalent)
    /// final state.
    global_hash: u64,
}

impl ShardGroup {
    /// Runs `protocol` sharded over a `grid_cols x grid_rows` fleet on
    /// the coordinator and captures the per-shard journals as a job
    /// group.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::ShardGridMismatch`] if the grid does
    /// not fit the configured array (see [`FleetTopology::new`]).
    ///
    /// # Panics
    ///
    /// Panics if a shard journal carries phase markers inconsistent with
    /// its siblings — a coordinator bug, not a runtime condition.
    pub fn plan(
        config: &WorkloadConfig,
        protocol: &Protocol,
        grid_cols: u32,
        grid_rows: u32,
    ) -> Result<Self, ManipulationError> {
        let driver = BatchDriver::new(*config);
        let dims = GridDims::square(config.array_side);
        let sep = config.min_separation.max(1);
        let fleet = ShardedState::new(FleetTopology::new(dims, sep, grid_cols, grid_rows)?);
        let (outcome, _journal, fleet) = driver.runner().run_sharded(protocol, 0, fleet);
        let global_hash = outcome.state.state_hash();
        Ok(Self::from_outcome(fleet.into_outcome(), global_hash))
    }

    /// Wraps an already-executed sharded run as a job group —
    /// [`ShardGroup::plan`] without re-running the coordinator, for
    /// callers (like scenario E16) that already hold the
    /// [`FleetOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if the shard journals carry inconsistent phase boundaries.
    pub fn from_outcome(outcome: FleetOutcome, global_hash: u64) -> Self {
        let bounds: Vec<Vec<usize>> = outcome.journals.iter().map(segment_bounds).collect();
        let segments = bounds[0].len() - 1;
        assert!(
            bounds.iter().all(|b| b.len() == segments + 1),
            "phase markers are broadcast, so every shard must see the same boundaries"
        );
        Self {
            outcome,
            bounds,
            segments,
            global_hash,
        }
    }

    /// Shards in the group (= workers spawned per run).
    pub fn shard_count(&self) -> usize {
        self.outcome.states.len()
    }

    /// Phase segments between barriers.
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Handoff and barrier counters of the coordinator's sharded run.
    pub fn stats(&self) -> FleetStats {
        self.outcome.stats
    }

    /// Journal length of every shard — the per-shard work the group
    /// distributes, and the load-imbalance signal E16 reports.
    pub fn journal_lengths(&self) -> Vec<usize> {
        self.outcome.journals.iter().map(Journal::len).collect()
    }

    /// State hash of every *live* shard from the coordinator's run — what
    /// a group run's replicas must reproduce.
    pub fn expected_hashes(&self) -> Vec<u64> {
        self.outcome
            .states
            .iter()
            .map(ChipState::state_hash)
            .collect()
    }

    /// State hash of the coordinator's global final state (byte-identical
    /// to a monolithic run of the same protocol and seed).
    pub fn global_hash(&self) -> u64 {
        self.global_hash
    }

    /// The fleet outcome backing the group (journals, states, topology).
    pub fn fleet(&self) -> &FleetOutcome {
        &self.outcome
    }

    /// Executes the group uninterrupted: every worker folds all segments.
    pub fn run(&self) -> GroupOutcome {
        self.execute(0, None, None)
    }

    /// Executes the group with one shard worker killed at a boundary.
    /// The barrier stops the *whole group* there; the returned
    /// [`GroupCheckpoint`] is the consistent resume point.
    ///
    /// # Panics
    ///
    /// Panics if `kill.shard` or `kill.boundary` is out of range.
    pub fn run_killed(&self, kill: GroupKill) -> (GroupOutcome, GroupCheckpoint) {
        assert!(kill.shard < self.shard_count(), "kill.shard out of range");
        assert!(
            kill.boundary >= 1 && kill.boundary < self.segments,
            "kill.boundary must be an interior phase boundary"
        );
        let outcome = self.execute(0, None, Some(kill));
        let checkpoint = GroupCheckpoint {
            next_segment: outcome.segments_folded,
            shards: outcome.states.iter().map(ChipState::snapshot).collect(),
        };
        (outcome, checkpoint)
    }

    /// Resumes a stopped group from its checkpoint: replacement workers
    /// restore every shard snapshot and fold the remaining segments.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shard count or boundary does not match
    /// this group.
    pub fn resume(&self, checkpoint: &GroupCheckpoint) -> GroupOutcome {
        assert_eq!(
            checkpoint.shards.len(),
            self.shard_count(),
            "checkpoint shard count must match the group"
        );
        assert!(
            checkpoint.next_segment <= self.segments,
            "checkpoint boundary out of range"
        );
        self.execute(checkpoint.next_segment, Some(&checkpoint.shards), None)
    }

    /// The worker gang: one thread per shard folding segments
    /// `start..`, rendezvousing on a barrier at every boundary, all
    /// stopping together at the earliest armed kill.
    fn execute(
        &self,
        start: usize,
        snapshots: Option<&[ChipStateSnapshot]>,
        kill: Option<GroupKill>,
    ) -> GroupOutcome {
        let workers = self.shard_count();
        let barrier = Barrier::new(workers);
        // usize::MAX = no stop armed; the killed worker stores its
        // boundary before the rendezvous, so every worker observes it
        // after the same barrier generation and exits in lockstep.
        let stop_after = AtomicUsize::new(usize::MAX);
        let sep = self.outcome.topology.min_separation().max(1);
        let segments = self.segments;
        let states = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|shard| {
                    let barrier = &barrier;
                    let stop_after = &stop_after;
                    let events = self.outcome.journals[shard].events();
                    let bounds = &self.bounds[shard];
                    let mut state = match snapshots {
                        Some(snapshots) => ChipState::from_snapshot(snapshots[shard].clone()),
                        None => {
                            ChipState::with_separation(self.outcome.topology.local_dims(shard), sep)
                        }
                    };
                    scope.spawn(move || {
                        for seg in start..segments {
                            for (offset, event) in
                                events[bounds[seg]..bounds[seg + 1]].iter().enumerate()
                            {
                                apply_event(&mut state, event, bounds[seg] + offset)
                                    .expect("shard journal segments replay cleanly");
                            }
                            let folded = seg + 1;
                            if kill.is_some_and(|k| k.shard == shard && k.boundary == folded) {
                                stop_after.store(folded, Ordering::SeqCst);
                            }
                            barrier.wait();
                            if folded >= stop_after.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                        state
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("shard worker panicked"))
                .collect::<Vec<_>>()
        });
        let stopped = stop_after.load(Ordering::SeqCst);
        GroupOutcome {
            states,
            segments_folded: if stopped == usize::MAX {
                self.segments
            } else {
                stopped
            },
        }
    }
}

/// Splits a shard journal into per-phase segments at its phase-finished /
/// phase-aborted markers: `bounds[k]..bounds[k + 1]` is phase `k`'s event
/// run, marker included. Any tail after the last marker folds into the
/// final segment.
fn segment_bounds(journal: &Journal) -> Vec<usize> {
    let mut bounds = vec![0];
    for (index, event) in journal.events().iter().enumerate() {
        if matches!(
            event,
            Event::PhaseFinished { .. } | Event::PhaseAborted { .. }
        ) {
            bounds.push(index + 1);
        }
    }
    if *bounds.last().expect("bounds start non-empty") != journal.len() {
        *bounds.last_mut().expect("bounds start non-empty") = journal.len();
    }
    if bounds.len() == 1 {
        // A journal with no markers at all is one segment.
        bounds.push(journal.len());
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_units::GridDims;

    fn group(grid: (u32, u32)) -> ShardGroup {
        let config = WorkloadConfig {
            array_side: 24,
            seed: 11,
            noise_scale: 1.0,
            detection_frames: 2,
            ..WorkloadConfig::default()
        };
        let protocol = Protocol::canned_cycle(
            GridDims::square(config.array_side),
            config.min_separation,
            16,
        );
        ShardGroup::plan(&config, &protocol, grid.0, grid.1).expect("grid fits the array")
    }

    #[test]
    fn group_workers_reproduce_every_live_shard_hash() {
        let group = group((2, 2));
        assert_eq!(group.shard_count(), 4);
        assert_eq!(group.segment_count(), 5);
        let outcome = group.run();
        assert_eq!(outcome.segments_folded, 5);
        assert_eq!(outcome.state_hashes(), group.expected_hashes());
    }

    #[test]
    fn killing_any_shard_worker_stops_the_whole_group_consistently() {
        let group = group((2, 1));
        for shard in 0..group.shard_count() {
            let (stopped, checkpoint) = group.run_killed(GroupKill { shard, boundary: 2 });
            assert_eq!(stopped.segments_folded, 2);
            assert_eq!(checkpoint.next_segment, 2);
            assert_eq!(checkpoint.shards.len(), 2);
            // The checkpoint survives its JSON round trip...
            let restored = GroupCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
            assert_eq!(restored, checkpoint);
            // ...and the resumed group lands on the uninterrupted hashes.
            let resumed = group.resume(&restored);
            assert_eq!(resumed.segments_folded, group.segment_count());
            assert_eq!(resumed.state_hashes(), group.expected_hashes());
        }
    }

    #[test]
    fn single_shard_groups_degenerate_to_one_worker() {
        let group = group((1, 1));
        assert_eq!(group.shard_count(), 1);
        assert_eq!(group.stats().exports, 0);
        let outcome = group.run();
        assert_eq!(outcome.state_hashes(), group.expected_hashes());
        assert_eq!(group.journal_lengths().len(), 1);
    }
}
