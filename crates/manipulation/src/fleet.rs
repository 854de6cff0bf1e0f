//! Sharded chip fleets: one logical array decomposed over many
//! [`ChipState`]s with a typed cross-shard handoff protocol.
//!
//! The paper's CMOS array scales by tiling identical cage electronics; a
//! chip larger than one worker's memory or core budget should likewise be
//! simulatable as a *fleet* of shard states that together are
//! **bit-identical** to the monolithic run. This module provides the
//! state-layer half of that story:
//!
//! * [`FleetTopology`] — partitions a logical `dims` into a `gx × gy`
//!   grid of shard rectangles. Each shard owns its *core* rect and
//!   carries a halo (ghost) margin of `min_separation / 2` cells, so a
//!   shard's local coordinate frame has the same boundary context the
//!   staggered-tile planner assumes (see [`crate::sharding`]).
//! * [`ShardedState`] — a fleet of per-shard [`ChipState`]s maintained as
//!   an exact decomposition of the global chip. The workload layer keeps
//!   executing the *identical* algorithm against the global state (so the
//!   global journal cannot diverge by construction) and mirrors every
//!   mutation into the owning shard. A particle whose removal/placement
//!   pair crosses a shard boundary is journaled through the
//!   [`ChipState::export_particle`] / [`ChipState::import_particle`]
//!   choke points as a typed
//!   [`Event::HandoffExported`](crate::journal::Event::HandoffExported) /
//!   [`Event::HandoffImported`](crate::journal::Event::HandoffImported)
//!   pair — so every shard journal replays
//!   bit-for-bit through the ordinary [`replay`](crate::journal::replay)
//!   oracle, handoffs included.
//! * [`ShardedState::compose`] — folds the shard states back into one
//!   global [`ChipState`] whose grid, plan, ledger, [`PartialEq`] and
//!   [`ChipState::state_hash`] all match the monolithic run exactly; the
//!   equivalence check scenario E16 sweeps.
//!
//! The fleet is write-only: it never plans or routes. Every motion is
//! decided once, on the global chip, and only mirrored into the shards.
//!
//! Transfers are declared up front
//! ([`ShardedState::begin_transfers`]) so each mutation can be journaled
//! at its application point in application order — deferring the
//! export/import decision until the destination is observed would append
//! shard events out of order and break per-shard replay.

use crate::cage::ParticleId;
use crate::error::ManipulationError;
use crate::journal::Journal;
use crate::state::{ChipState, TimeLedger};
use labchip_units::{GridCoord, GridDims, GridRect, Seconds};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Partition of a logical array into a `gx × gy` grid of shard
/// rectangles with halo (ghost) margins.
///
/// Shards are indexed row-major: shard `sy * gx + sx` owns the cells
/// with `x` in the `sx`-th column band and `y` in the `sy`-th row band.
/// Bands split the array as evenly as possible (`⌊i·cols/gx⌋`
/// boundaries). Every global cell has exactly one owner; the halo rect
/// extends a shard's core by `min_separation / 2` cells in each
/// direction (clipped to the array), giving the shard's local frame the
/// ghost margin a boundary-adjacent routing window needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTopology {
    dims: GridDims,
    min_separation: u32,
    grid: (u32, u32),
    halo: u32,
    /// `gx + 1` column-band boundaries (`x_bounds[i]..x_bounds[i+1]`).
    x_bounds: Vec<u32>,
    /// `gy + 1` row-band boundaries.
    y_bounds: Vec<u32>,
}

fn band_bounds(extent: u32, bands: u32) -> Vec<u32> {
    (0..=bands)
        .map(|i| ((u64::from(i) * u64::from(extent)) / u64::from(bands)) as u32)
        .collect()
}

impl FleetTopology {
    /// Creates a `grid_cols × grid_rows` shard topology over `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::ShardGridMismatch`] if either grid
    /// extent is zero or exceeds the matching array extent (a shard must
    /// own at least one column and one row).
    pub fn new(
        dims: GridDims,
        min_separation: u32,
        grid_cols: u32,
        grid_rows: u32,
    ) -> Result<Self, ManipulationError> {
        if !(1..=dims.cols).contains(&grid_cols) || !(1..=dims.rows).contains(&grid_rows) {
            return Err(ManipulationError::ShardGridMismatch {
                grid_cols,
                grid_rows,
                dims,
            });
        }
        Ok(Self {
            dims,
            min_separation,
            grid: (grid_cols, grid_rows),
            halo: min_separation / 2,
            x_bounds: band_bounds(dims.cols, grid_cols),
            y_bounds: band_bounds(dims.rows, grid_rows),
        })
    }

    /// The logical (global) array dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The minimum cage separation the fleet simulates under.
    pub fn min_separation(&self) -> u32 {
        self.min_separation
    }

    /// The shard grid as `(cols, rows)`.
    pub fn shard_grid(&self) -> (u32, u32) {
        self.grid
    }

    /// Number of shards (`gx · gy`).
    pub fn shard_count(&self) -> usize {
        (self.grid.0 * self.grid.1) as usize
    }

    /// The halo (ghost) margin in cells: `min_separation / 2`.
    pub fn halo(&self) -> u32 {
        self.halo
    }

    /// The core rectangle a shard owns (inclusive corners).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn core(&self, shard: usize) -> GridRect {
        let gx = self.grid.0 as usize;
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        let (sx, sy) = (shard % gx, shard / gx);
        GridRect::new(
            GridCoord::new(self.x_bounds[sx], self.y_bounds[sy]),
            GridCoord::new(self.x_bounds[sx + 1] - 1, self.y_bounds[sy + 1] - 1),
        )
    }

    /// The shard's core expanded by the halo margin, clipped to the array
    /// — the rectangle the shard's local [`ChipState`] spans.
    pub fn halo_rect(&self, shard: usize) -> GridRect {
        let core = self.core(shard);
        GridRect::new(
            GridCoord::new(
                core.min.x.saturating_sub(self.halo),
                core.min.y.saturating_sub(self.halo),
            ),
            GridCoord::new(
                (core.max.x + self.halo).min(self.dims.cols - 1),
                (core.max.y + self.halo).min(self.dims.rows - 1),
            ),
        )
    }

    /// Dimensions of the shard's local frame (its halo rect).
    pub fn local_dims(&self, shard: usize) -> GridDims {
        let rect = self.halo_rect(shard);
        GridDims::new(rect.max.x - rect.min.x + 1, rect.max.y - rect.min.y + 1)
    }

    /// The shard owning a global coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the array.
    pub fn owner(&self, at: GridCoord) -> usize {
        assert!(
            at.x < self.dims.cols && at.y < self.dims.rows,
            "coordinate {at} outside array"
        );
        // partition_point over the upper boundaries: band i covers
        // x_bounds[i]..x_bounds[i+1].
        let sx = self.x_bounds[1..].partition_point(|&b| b <= at.x);
        let sy = self.y_bounds[1..].partition_point(|&b| b <= at.y);
        sy * self.grid.0 as usize + sx
    }

    /// Converts a global coordinate into a shard's local frame.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside the shard's halo rect.
    pub fn to_local(&self, shard: usize, at: GridCoord) -> GridCoord {
        let rect = self.halo_rect(shard);
        assert!(
            rect.contains(at),
            "coordinate {at} outside shard {shard} halo rect"
        );
        GridCoord::new(at.x - rect.min.x, at.y - rect.min.y)
    }

    /// Converts a shard-local coordinate back into the global frame.
    pub fn to_global(&self, shard: usize, local: GridCoord) -> GridCoord {
        let rect = self.halo_rect(shard);
        GridCoord::new(local.x + rect.min.x, local.y + rect.min.y)
    }
}

/// Handoff and barrier counters of a sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Cross-shard handoff exports journaled.
    pub exports: u64,
    /// Cross-shard handoff imports journaled.
    pub imports: u64,
    /// Staggered-phase barriers executed (one per finished phase).
    pub barriers: u64,
}

/// A transfer declared for the current window: where the particle is
/// headed, and — once its removal has been mirrored — which shard
/// exported it.
#[derive(Debug, Clone, Copy)]
struct PendingTransfer {
    to: GridCoord,
    exported_from: Option<usize>,
}

/// A fleet of per-shard [`ChipState`]s maintained as an exact, journaled
/// decomposition of one global chip.
///
/// The owner of the global [`ChipState`] drives the simulation exactly as
/// in the monolithic path and mirrors each successful mutation here; the
/// mirrors never touch global state, RNG or the global journal, so a
/// sharded run's global journal is byte-identical to the monolithic run
/// by construction. Mirror calls panic if the fleet ever desynchronises
/// from the global chip — that is a bug, not an input error, because a
/// mutation that succeeded globally must succeed in the owning shard
/// (shard occupancy is a subset of global occupancy, so every separation
/// and bounds argument carries over).
#[derive(Debug)]
pub struct ShardedState {
    topology: FleetTopology,
    shards: Vec<ChipState>,
    /// Which shard currently hosts each particle.
    locate: HashMap<ParticleId, usize>,
    /// Transfers declared for the current window.
    pending: HashMap<ParticleId, PendingTransfer>,
    stats: FleetStats,
}

impl ShardedState {
    /// Creates an empty fleet over `topology`, one journaled [`ChipState`]
    /// per shard.
    pub fn new(topology: FleetTopology) -> Self {
        let sep = topology.min_separation().max(1);
        let shards: Vec<ChipState> = (0..topology.shard_count())
            .map(|s| {
                let mut state = ChipState::with_separation(topology.local_dims(s), sep);
                state.attach_journal();
                state
            })
            .collect();
        Self {
            topology,
            shards,
            locate: HashMap::new(),
            pending: HashMap::new(),
            stats: FleetStats::default(),
        }
    }

    /// The fleet topology.
    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// Read access to one shard state.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &ChipState {
        &self.shards[shard]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Handoff and barrier counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Particles currently hosted per shard — the load-imbalance probe.
    pub fn shard_populations(&self) -> Vec<usize> {
        self.shards.iter().map(ChipState::particle_count).collect()
    }

    /// Declares the transfers of the upcoming window: `(id, from, to)`
    /// triples taken from the routing outcome *before* any particle is
    /// lifted. Declaring up front is what lets each subsequent mirror call
    /// journal the handoff halves in application order.
    pub fn begin_transfers(&mut self, transfers: &[(ParticleId, GridCoord, GridCoord)]) {
        for &(id, _from, to) in transfers {
            self.pending.insert(
                id,
                PendingTransfer {
                    to,
                    exported_from: None,
                },
            );
        }
    }

    /// Mirrors a successful global placement into the owning shard. A
    /// declared transfer whose removal was journaled as an export lands
    /// as a typed [handoff import](ChipState::import_particle); everything
    /// else is a plain placement.
    ///
    /// # Panics
    ///
    /// Panics if the shard rejects the placement — impossible while the
    /// fleet mirrors a valid global chip.
    pub fn mirror_place(&mut self, id: ParticleId, at: GridCoord) {
        let shard = self.topology.owner(at);
        let local = self.topology.to_local(shard, at);
        match self.pending.remove(&id) {
            Some(PendingTransfer {
                exported_from: Some(from_shard),
                ..
            }) => {
                self.shards[shard]
                    .import_particle(id, local, from_shard)
                    .expect("mirror of a successful global place cannot fail");
                self.stats.imports += 1;
            }
            _ => {
                self.shards[shard]
                    .place(id, local)
                    .expect("mirror of a successful global place cannot fail");
            }
        }
        self.locate.insert(id, shard);
    }

    /// Mirrors a successful global removal out of the hosting shard. A
    /// declared transfer headed to another shard is journaled as a typed
    /// [handoff export](ChipState::export_particle); everything else is a
    /// plain removal.
    ///
    /// # Panics
    ///
    /// Panics if the particle is not tracked by the fleet — impossible
    /// while the fleet mirrors a valid global chip.
    pub fn mirror_remove(&mut self, id: ParticleId) {
        let shard = self
            .locate
            .remove(&id)
            .expect("mirror of a successful global remove cannot miss");
        let export_to = match self.pending.get(&id) {
            Some(pending) => {
                let destination = self.topology.owner(pending.to);
                (destination != shard).then_some(destination)
            }
            None => None,
        };
        match export_to {
            Some(destination) => {
                self.shards[shard]
                    .export_particle(id, destination)
                    .expect("mirror of a successful global remove cannot miss");
                if let Some(pending) = self.pending.get_mut(&id) {
                    pending.exported_from = Some(shard);
                }
                self.stats.exports += 1;
            }
            None => {
                self.shards[shard]
                    .remove(id)
                    .expect("mirror of a successful global remove cannot miss");
            }
        }
    }

    /// Mirrors a successful global merge placement into the owning shard.
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the array.
    pub fn mirror_place_merged(&mut self, id: ParticleId, at: GridCoord) {
        let shard = self.topology.owner(at);
        let local = self.topology.to_local(shard, at);
        self.pending.remove(&id);
        self.shards[shard].place_merged(id, local);
        self.locate.insert(id, shard);
    }

    /// Mirrors a global plan replacement: each shard's plan becomes the
    /// goals it owns, localised; every shard journals the replacement
    /// (possibly empty), preserving the barrier structure of the trace.
    pub fn mirror_plan(&mut self, goals: &[GridCoord]) {
        for s in 0..self.shards.len() {
            let local: Vec<GridCoord> = goals
                .iter()
                .filter(|&&goal| self.topology.owner(goal) == s)
                .map(|&goal| self.topology.to_local(s, goal))
                .collect();
            self.shards[s].set_plan_from_goals(local);
        }
    }

    /// Mirrors a global time charge into every shard, so each shard
    /// journal carries the complete ledger and [`compose`](Self::compose)
    /// reproduces the monolithic ledger bit-for-bit.
    pub fn mirror_charge(&mut self, ledger: TimeLedger, duration: Seconds) {
        for shard in &mut self.shards {
            shard.charge(ledger, duration);
        }
    }

    /// Broadcasts a phase-start marker to every shard journal.
    pub fn note_phase_started(&mut self, index: usize, name: &str) {
        for shard in &mut self.shards {
            shard.note_phase_started(index, name);
        }
    }

    /// Broadcasts a phase-completion marker to every shard journal.
    pub fn note_phase_finished(&mut self, index: usize) {
        for shard in &mut self.shards {
            shard.note_phase_finished(index);
        }
    }

    /// Broadcasts a phase-abort marker to every shard journal.
    pub fn note_phase_aborted(&mut self, index: usize, reason: &str) {
        for shard in &mut self.shards {
            shard.note_phase_aborted(index, reason);
        }
    }

    /// The staggered-phase barrier: a rendezvous point at the end of each
    /// phase where every declared transfer has settled. Undelivered
    /// declarations (a phase that aborted mid-window) are dropped so the
    /// next window starts clean.
    pub fn barrier(&mut self) {
        self.pending.clear();
        self.stats.barriers += 1;
    }

    /// Folds the shard states back into one global [`ChipState`]: every
    /// particle at its global coordinate, the plan the union of the shard
    /// plans, the ledger taken from shard 0 (all shards charge
    /// identically). The result compares equal to — and hashes
    /// identically with — the monolithic state the fleet mirrored.
    pub fn compose(&self) -> ChipState {
        compose(&self.topology, &self.shards)
    }

    /// Finishes the run: detaches every shard journal and returns the
    /// fleet's outcome record.
    pub fn into_outcome(mut self) -> FleetOutcome {
        let journals: Vec<Journal> = self
            .shards
            .iter_mut()
            .map(|shard| shard.take_journal().expect("fleet shards are journaled"))
            .collect();
        FleetOutcome {
            topology: self.topology,
            states: self.shards,
            journals,
            stats: self.stats,
        }
    }
}

/// Everything a finished sharded run leaves behind: the final shard
/// states, their journals, and the handoff counters.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The topology the run was sharded under.
    pub topology: FleetTopology,
    /// Final per-shard states (journals detached).
    pub states: Vec<ChipState>,
    /// Per-shard journals, handoff events included.
    pub journals: Vec<Journal>,
    /// Handoff and barrier counters.
    pub stats: FleetStats,
}

impl FleetOutcome {
    /// Replays every shard journal through the ordinary
    /// [`replay`](crate::journal::replay) oracle and counts shards whose
    /// replayed state hash misses the live shard state — must be zero.
    pub fn replay_divergences(&self) -> usize {
        let sep = self.topology.min_separation().max(1);
        (0..self.states.len())
            .filter(|&s| {
                let replayed =
                    crate::journal::replay(&self.journals[s], self.topology.local_dims(s), sep);
                match replayed {
                    Ok(state) => state.state_hash() != self.states[s].state_hash(),
                    Err(_) => true,
                }
            })
            .count()
    }

    /// Folds the final shard states into one global [`ChipState`] (see
    /// [`ShardedState::compose`]).
    pub fn compose(&self) -> ChipState {
        compose(&self.topology, &self.states)
    }

    /// Total cross-shard handoffs (export halves).
    pub fn handoffs(&self) -> u64 {
        self.stats.exports
    }
}

/// The fold behind [`ShardedState::compose`] and [`FleetOutcome::compose`].
fn compose(topology: &FleetTopology, shards: &[ChipState]) -> ChipState {
    let sep = topology.min_separation().max(1);
    let mut composed = ChipState::with_separation(topology.dims(), sep);
    for (s, shard) in shards.iter().enumerate() {
        for (id, local) in shard.grid().iter_particles() {
            // Merge-tolerant placement: the shard may legitimately hold
            // merged cages, and the grid's id-keyed map makes the
            // insertion order irrelevant.
            composed.place_merged(id, topology.to_global(s, local));
        }
    }
    let mut plan: Vec<GridCoord> = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        plan.extend(
            shard
                .plan()
                .occupied_sites()
                .into_iter()
                .map(|site| topology.to_global(s, site)),
        );
    }
    composed.set_plan_from_goals(plan);
    if let Some(first) = shards.first() {
        let time = *first.time();
        debug_assert!(
            shards.iter().all(|shard| *shard.time() == time),
            "mirror_charge keeps every shard ledger identical"
        );
        composed.charge(TimeLedger::Fluidics, time.fluidics);
        composed.charge(TimeLedger::Sensing, time.sensing);
        composed.charge(TimeLedger::Motion, time.motion);
        composed.charge(TimeLedger::Recovery, time.recovery);
    }
    composed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;

    #[test]
    fn topology_partitions_every_cell_exactly_once() {
        let dims = GridDims::new(13, 9);
        let topo = FleetTopology::new(dims, 2, 3, 2).unwrap();
        assert_eq!(topo.shard_count(), 6);
        for cell in dims.iter() {
            let owner = topo.owner(cell);
            let owners = (0..topo.shard_count())
                .filter(|&s| topo.core(s).contains(cell))
                .count();
            assert_eq!(owners, 1, "cell {cell} owned once");
            assert!(topo.core(owner).contains(cell));
        }
        let total: u64 = (0..topo.shard_count()).map(|s| topo.core(s).count()).sum();
        assert_eq!(total, u64::from(dims.cols) * u64::from(dims.rows));
    }

    #[test]
    fn halo_rects_extend_cores_by_half_the_separation() {
        let topo = FleetTopology::new(GridDims::square(16), 4, 2, 2).unwrap();
        assert_eq!(topo.halo(), 2);
        // Interior shard corner: the halo reaches into the neighbour.
        let core = topo.core(3);
        let halo = topo.halo_rect(3);
        assert_eq!(halo.min.x, core.min.x - 2);
        assert_eq!(halo.min.y, core.min.y - 2);
        // Array edge: clipped.
        assert_eq!(halo.max.x, 15);
        assert_eq!(halo.max.y, 15);
        // Local/global round trip.
        let at = GridCoord::new(9, 10);
        assert_eq!(topo.to_global(3, topo.to_local(3, at)), at);
    }

    #[test]
    fn one_by_one_topology_is_the_monolithic_frame() {
        let dims = GridDims::square(12);
        let topo = FleetTopology::new(dims, 2, 1, 1).unwrap();
        assert_eq!(topo.shard_count(), 1);
        assert_eq!(topo.local_dims(0), dims);
        assert_eq!(topo.owner(GridCoord::new(11, 0)), 0);
        assert_eq!(topo.to_local(0, GridCoord::new(7, 3)), GridCoord::new(7, 3));
    }

    #[test]
    fn grids_that_do_not_fit_the_array_are_errors() {
        let dims = GridDims::square(8);
        for (cols, rows) in [(0, 1), (1, 0), (9, 1), (1, 9)] {
            let err = FleetTopology::new(dims, 2, cols, rows).unwrap_err();
            assert_eq!(
                err,
                ManipulationError::ShardGridMismatch {
                    grid_cols: cols,
                    grid_rows: rows,
                    dims,
                }
            );
            assert!(err.to_string().contains(&format!("{cols}x{rows}")), "{err}");
            assert!(err.to_string().contains("8x8"), "{err}");
        }
        // The largest grid that fits gives every shard one column/row.
        assert_eq!(FleetTopology::new(dims, 2, 8, 8).unwrap().shard_count(), 64);
    }

    /// Drives a small global chip and its mirror through a
    /// boundary-crossing move, then checks composition, handoff journaling
    /// and per-shard replay.
    #[test]
    fn mirrored_handoff_composes_and_replays_bit_identically() {
        let dims = GridDims::square(16);
        let sep = 2;
        let mut global = ChipState::with_separation(dims, sep);
        global.attach_journal();
        let topo = FleetTopology::new(dims, sep, 2, 1).unwrap();
        let mut fleet = ShardedState::new(topo);

        // Place two particles, one per shard half.
        for (id, at) in [(1u64, GridCoord::new(2, 8)), (2, GridCoord::new(13, 8))] {
            global.place(ParticleId(id), at).unwrap();
            fleet.mirror_place(ParticleId(id), at);
        }
        // Move particle 1 across the x = 8 boundary: declared transfer,
        // lift, settle — the mirror journals an export/import pair.
        let from = GridCoord::new(2, 8);
        let to = GridCoord::new(11, 4);
        fleet.begin_transfers(&[(ParticleId(1), from, to)]);
        global.remove(ParticleId(1)).unwrap();
        fleet.mirror_remove(ParticleId(1));
        global.place(ParticleId(1), to).unwrap();
        fleet.mirror_place(ParticleId(1), to);
        let goals = vec![to, GridCoord::new(13, 8)];
        global.set_plan_from_goals(goals.iter().copied());
        fleet.mirror_plan(&goals);
        global.charge(TimeLedger::Motion, Seconds::new(1.25));
        fleet.mirror_charge(TimeLedger::Motion, Seconds::new(1.25));
        fleet.barrier();

        assert_eq!(fleet.stats().exports, 1);
        assert_eq!(fleet.stats().imports, 1);
        assert_eq!(fleet.stats().barriers, 1);
        let composed = fleet.compose();
        assert_eq!(composed, global);
        assert_eq!(composed.state_hash(), global.state_hash());
        assert_eq!(
            fleet.shard_populations(),
            vec![0, 2],
            "both particles ended in the right half"
        );

        let outcome = fleet.into_outcome();
        assert_eq!(outcome.handoffs(), 1);
        assert_eq!(outcome.replay_divergences(), 0);
        assert_eq!(outcome.compose().state_hash(), global.state_hash());
        let kinds: Vec<&str> = outcome.journals[0]
            .events()
            .iter()
            .map(Event::kind)
            .collect();
        assert!(kinds.contains(&"handoff_exported"));
        let kinds: Vec<&str> = outcome.journals[1]
            .events()
            .iter()
            .map(Event::kind)
            .collect();
        assert!(kinds.contains(&"handoff_imported"));
    }

    #[test]
    fn in_shard_moves_journal_plain_remove_and_place() {
        let dims = GridDims::square(12);
        let topo = FleetTopology::new(dims, 2, 2, 1).unwrap();
        let mut fleet = ShardedState::new(topo);
        fleet.mirror_place(ParticleId(7), GridCoord::new(1, 1));
        fleet.begin_transfers(&[(ParticleId(7), GridCoord::new(1, 1), GridCoord::new(3, 3))]);
        fleet.mirror_remove(ParticleId(7));
        fleet.mirror_place(ParticleId(7), GridCoord::new(3, 3));
        assert_eq!(fleet.stats().exports, 0);
        assert_eq!(fleet.stats().imports, 0);
        let outcome = fleet.into_outcome();
        let kinds: Vec<&str> = outcome.journals[0]
            .events()
            .iter()
            .map(Event::kind)
            .collect();
        assert_eq!(kinds, ["placed", "removed", "placed"]);
    }
}
