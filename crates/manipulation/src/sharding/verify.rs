//! Merged-window verification and serial repair.
//!
//! After the per-shard plans are merged the window is verified with a dense
//! per-step occupancy scan; any violating particle (none are expected by
//! construction — the margins make cross-shard conflicts impossible — but
//! frozen corner cases are cheap to guard) is demoted to wait-in-place and
//! then re-planned serially against the merged reservation table.

use super::astar_soa::{position_at, window_astar, Scratch, WindowReservations};
use super::EXPANSION_CAP;
use crate::occupancy::OccupancyGrid;
use crate::routing::RoutingProblem;
use labchip_units::{GridCoord, GridDims};

/// All conflicting particle pairs of a merged window
/// (`O(n · window · sep²)` instead of `O(n² · window)`), found with one
/// dense occupancy pass per step; stops at the first conflicting step so
/// repair can fix it before re-verifying.
fn window_conflicts(
    grid: &mut OccupancyGrid,
    dims: GridDims,
    trajs: &[Vec<GridCoord>],
    window: usize,
    sep: u32,
) -> Vec<(usize, usize)> {
    grid.begin(
        GridCoord::new(0, 0),
        GridCoord::new(dims.cols - 1, dims.rows - 1),
    );
    let mut pairs = Vec::new();
    for t in 1..=window {
        grid.clear();
        for (i, traj) in trajs.iter().enumerate() {
            grid.insert(position_at(traj, t), i as u32);
        }
        for (i, traj) in trajs.iter().enumerate() {
            grid.for_each_in_zone(position_at(traj, t), sep, |j| {
                let j = j as usize;
                if j > i {
                    pairs.push((i, j));
                }
            });
        }
        if !pairs.is_empty() {
            break; // repair this step first; later steps re-verify after
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Verifies a merged window; conflicting particles are demoted to
/// wait-in-place until the window is clean, then re-planned serially
/// against the merged reservations.
pub(crate) fn verify_and_repair(
    problem: &RoutingProblem,
    positions: &[GridCoord],
    goals: &[GridCoord],
    trajs: &mut [Vec<GridCoord>],
    window: usize,
    sep: u32,
    grid: &mut OccupancyGrid,
) {
    let mut demoted: Vec<usize> = Vec::new();
    loop {
        let offenders = window_conflicts(grid, problem.dims, trajs, window, sep);
        if offenders.is_empty() {
            break;
        }
        for (a, b) in offenders {
            // Demote the particle farther from its goal (ties: higher
            // index); the other keeps its plan. Two waiting particles
            // can never conflict (window-start states are valid), so if
            // the preferred victim already waits, the other one moved.
            let preferred =
                if (positions[a].manhattan(goals[a]), a) >= (positions[b].manhattan(goals[b]), b) {
                    a
                } else {
                    b
                };
            let victim = if trajs[preferred].len() > 1 {
                preferred
            } else {
                a + b - preferred
            };
            if trajs[victim].len() > 1 {
                trajs[victim] = vec![positions[victim]];
                demoted.push(victim);
            }
        }
    }
    if demoted.is_empty() {
        return;
    }
    demoted.sort_unstable();
    demoted.dedup();

    // Re-plan the demoted particles one at a time against everyone
    // else's merged trajectories. This is a cold path, so the sparse
    // whole-grid reservation table is the right trade-off here.
    let mut reservations = WindowReservations::new(window, sep);
    for traj in trajs.iter() {
        reservations.add_path(traj);
    }
    let dims = problem.dims;
    let lo = GridCoord::new(0, 0);
    let hi = GridCoord::new(dims.cols - 1, dims.rows - 1);
    let mut scratch = Scratch::default();
    for &i in &demoted {
        reservations.remove_path(&trajs[i]);
        let path = window_astar(
            lo,
            hi,
            |_| true,
            positions[i],
            goals[i],
            &reservations,
            &mut scratch,
            EXPANSION_CAP,
        );
        reservations.add_path(&path);
        trajs[i] = path;
    }
    // The re-planned paths respected the reservations, but run one
    // last wait-demotion sweep as a hard guarantee.
    loop {
        let offenders = window_conflicts(grid, problem.dims, trajs, window, sep);
        if offenders.is_empty() {
            break;
        }
        for (a, b) in offenders {
            let victim = a.max(b);
            if trajs[victim].len() > 1 {
                trajs[victim] = vec![positions[victim]];
            } else {
                let other = a.min(b);
                trajs[other] = vec![positions[other]];
            }
        }
    }
}
