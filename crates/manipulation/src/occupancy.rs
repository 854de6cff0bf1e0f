//! Dense cell occupancy over a box of the grid, cleared in O(1).
//!
//! One `u32` occupant id and one epoch stamp per cell: a cell is occupied
//! when its stamp equals the current epoch, so emptying the whole box is a
//! single epoch bump instead of a rebuild. Both conflict checks — the
//! sharded router's per-window verifier and
//! [`crate::routing::RoutingOutcome::is_conflict_free`] — run on this grid.

use crate::routing::for_each_zone_cell;
use labchip_units::GridCoord;

/// Epoch-stamped occupant table over an inclusive cell box.
#[derive(Debug, Default)]
pub(crate) struct OccupancyGrid {
    lo_x: u32,
    lo_y: u32,
    cols: usize,
    rows: usize,
    occupant: Vec<u32>,
    stamp: Vec<u32>,
    /// Never 0, so a zero stamp always reads as empty.
    epoch: u32,
}

impl OccupancyGrid {
    /// Re-targets the grid to the inclusive cell box `[lo, hi]` and empties
    /// it.
    pub(crate) fn begin(&mut self, lo: GridCoord, hi: GridCoord) {
        self.lo_x = lo.x;
        self.lo_y = lo.y;
        self.cols = (hi.x - lo.x + 1) as usize;
        self.rows = (hi.y - lo.y + 1) as usize;
        let cells = self.cols * self.rows;
        if self.occupant.len() < cells {
            self.occupant.resize(cells, 0);
            self.stamp.resize(cells, 0);
        }
        self.clear();
    }

    /// Empties every cell.
    pub(crate) fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    fn index(&self, c: GridCoord) -> Option<usize> {
        if c.x < self.lo_x || c.y < self.lo_y {
            return None;
        }
        let (x, y) = ((c.x - self.lo_x) as usize, (c.y - self.lo_y) as usize);
        (x < self.cols && y < self.rows).then(|| y * self.cols + x)
    }

    fn occupant_of(&self, k: usize) -> Option<u32> {
        (self.stamp[k] == self.epoch).then(|| self.occupant[k])
    }

    /// Puts `id` on `c` (which must lie inside the box) and returns the
    /// occupant it displaced, if any.
    pub(crate) fn insert(&mut self, c: GridCoord, id: u32) -> Option<u32> {
        let k = self
            .index(c)
            .expect("occupied cell lies inside the grid box");
        let previous = self.occupant_of(k);
        self.occupant[k] = id;
        self.stamp[k] = self.epoch;
        previous
    }

    /// Empties `c`.
    pub(crate) fn remove(&mut self, c: GridCoord) {
        if let Some(k) = self.index(c) {
            self.stamp[k] = 0;
        }
    }

    /// Calls `f` with the occupant of every occupied cell of the
    /// Chebyshev-<`radius` zone around `center`.
    pub(crate) fn for_each_in_zone(&self, center: GridCoord, radius: u32, mut f: impl FnMut(u32)) {
        for_each_zone_cell(center, radius, |c| {
            if let Some(id) = self.index(c).and_then(|k| self.occupant_of(k)) {
                f(id);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_clear() {
        let mut grid = OccupancyGrid::default();
        grid.begin(GridCoord::new(2, 3), GridCoord::new(5, 6));
        assert_eq!(grid.insert(GridCoord::new(2, 3), 7), None);
        assert_eq!(grid.insert(GridCoord::new(2, 3), 8), Some(7));
        grid.remove(GridCoord::new(2, 3));
        assert_eq!(grid.insert(GridCoord::new(2, 3), 9), None);
        grid.clear();
        assert_eq!(grid.insert(GridCoord::new(2, 3), 1), None);
    }

    #[test]
    fn zone_walk_sees_only_occupants_inside_the_box() {
        let mut grid = OccupancyGrid::default();
        grid.begin(GridCoord::new(1, 1), GridCoord::new(4, 4));
        grid.insert(GridCoord::new(1, 1), 0);
        grid.insert(GridCoord::new(2, 2), 1);
        grid.insert(GridCoord::new(4, 4), 2);
        let mut seen = Vec::new();
        // The zone around (0, 0) pokes outside the box; only (1, 1) is near.
        grid.for_each_in_zone(GridCoord::new(0, 0), 2, |id| seen.push(id));
        assert_eq!(seen, vec![0]);
        seen.clear();
        grid.for_each_in_zone(GridCoord::new(2, 2), 2, |id| seen.push(id));
        assert_eq!(seen, vec![0, 1]);
    }
}
