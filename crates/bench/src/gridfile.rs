//! Welch's bucketing algorithm \[Wel 71\] — the grid-based NN search the
//! paper's Section 2 reviews first.
//!
//! The data space is divided into identical cells; each cell keeps the
//! list of points falling inside. A nearest-neighbor search visits the
//! cells in order of their distance to the query and terminates when the
//! nearest point found so far is nearer than any unvisited cell — simple,
//! and effective in low dimensions. The paper's verdict ("unfortunately,
//! the algorithm is not efficient for high-dimensional data") is
//! reproduced by the `ext5` experiment: the number of cells is `g^d`, so
//! either the grid is uselessly coarse or almost all cells are empty and
//! the queue degenerates.
//!
//! Cells are capped to [`MAX_CELLS`]; constructing a finer grid fails —
//! the same wall the paper describes (a complete binary partition of a
//! 16-d space already yields 65 536 partitions).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parsim_geometry::Point;
use parsim_index::{IndexError, Neighbor};
use parsim_storage::SimDisk;

/// Upper bound on the total number of grid cells.
pub const MAX_CELLS: usize = 1 << 22;

/// A uniform-grid NN index with `side^dim` cells over `[0,1]^d`.
pub struct GridFile {
    dim: usize,
    side: usize,
    cells: Vec<Vec<(Point, u64)>>,
    len: usize,
    disk: Option<Arc<SimDisk>>,
}

impl GridFile {
    /// Builds the grid with `side` cells per axis.
    pub fn build(items: Vec<(Point, u64)>, side: usize) -> Result<Self, IndexError> {
        if items.is_empty() {
            return Err(IndexError::BadParams("empty data set".into()));
        }
        if side == 0 {
            return Err(IndexError::BadParams("side must be positive".into()));
        }
        let dim = items[0].0.dim();
        let cell_count = (side as u128).checked_pow(dim as u32);
        match cell_count {
            Some(c) if c <= MAX_CELLS as u128 => {}
            _ => {
                return Err(IndexError::BadParams(format!(
                    "{side}^{dim} cells exceed the limit of {MAX_CELLS} — the curse of \
                     dimensionality the paper describes"
                )))
            }
        }
        let mut grid = GridFile {
            dim,
            side,
            cells: vec![Vec::new(); cell_count.expect("checked above") as usize],
            len: items.len(),
            disk: None,
        };
        for (p, item) in items {
            if p.dim() != dim {
                return Err(IndexError::DimensionMismatch {
                    expected: dim,
                    got: p.dim(),
                });
            }
            let idx = grid.cell_of(&p);
            grid.cells[idx].push((p, item));
        }
        Ok(grid)
    }

    /// Attaches a simulated disk; every visited cell charges one page.
    pub fn with_disk(mut self, disk: Arc<SimDisk>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no points are indexed (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Fraction of cells that hold at least one point.
    pub fn occupancy(&self) -> f64 {
        self.cells.iter().filter(|c| !c.is_empty()).count() as f64 / self.cells.len() as f64
    }

    fn coord_of(&self, v: f64) -> usize {
        ((v.clamp(0.0, 1.0) * self.side as f64) as usize).min(self.side - 1)
    }

    fn cell_of(&self, p: &Point) -> usize {
        let mut idx = 0usize;
        for &c in p.iter() {
            idx = idx * self.side + self.coord_of(c);
        }
        idx
    }

    /// Squared distance from `q` to cell `coords` (per-axis clamp).
    fn cell_min_dist2(&self, q: &Point, coords: &[usize]) -> f64 {
        let w = 1.0 / self.side as f64;
        let mut acc = 0.0;
        for (i, &c) in coords.iter().enumerate() {
            let lo = c as f64 * w;
            let hi = lo + w;
            let v = q[i];
            let d = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                continue;
            };
            acc += d * d;
        }
        acc
    }

    /// Finds the `k` nearest neighbors by visiting cells in MINDIST order
    /// (best-first over the cell lattice, expanding neighbors lazily).
    pub fn knn(&self, query: &Point, k: usize) -> Vec<Neighbor> {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        if k == 0 {
            return Vec::new();
        }

        #[derive(PartialEq)]
        struct CellEntry(f64, Vec<usize>);
        impl Eq for CellEntry {}
        impl PartialOrd for CellEntry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for CellEntry {
            fn cmp(&self, other: &Self) -> Ordering {
                other.0.partial_cmp(&self.0).expect("finite distances")
            }
        }

        let start: Vec<usize> = query.iter().map(|&v| self.coord_of(v)).collect();
        let mut queue = BinaryHeap::new();
        let mut seen = std::collections::HashSet::new();
        queue.push(CellEntry(self.cell_min_dist2(query, &start), start.clone()));
        seen.insert(start);

        let mut best: Vec<(f64, u64, Point)> = Vec::new();
        let worst = |best: &Vec<(f64, u64, Point)>| -> f64 {
            if best.len() < k {
                f64::INFINITY
            } else {
                best.iter().map(|b| b.0).fold(0.0, f64::max)
            }
        };

        while let Some(CellEntry(dist, coords)) = queue.pop() {
            if dist > worst(&best) {
                break; // no unvisited cell can contain anything closer
            }
            if let Some(disk) = &self.disk {
                disk.touch_read(1);
            }
            let mut idx = 0usize;
            for &c in &coords {
                idx = idx * self.side + c;
            }
            for (p, item) in &self.cells[idx] {
                let d2 = p.dist2(query);
                if best.len() < k {
                    best.push((d2, *item, p.clone()));
                } else if d2 < worst(&best) {
                    let wi = best
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite"))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    best[wi] = (d2, *item, p.clone());
                }
            }
            // Expand the 2d face neighbors lazily.
            for axis in 0..self.dim {
                for delta in [-1isize, 1] {
                    let c = coords[axis] as isize + delta;
                    if c < 0 || c as usize >= self.side {
                        continue;
                    }
                    let mut next = coords.clone();
                    next[axis] = c as usize;
                    if seen.insert(next.clone()) {
                        let d = self.cell_min_dist2(query, &next);
                        queue.push(CellEntry(d, next));
                    }
                }
            }
        }

        best.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        best.into_iter()
            .map(|(d2, item, point)| Neighbor {
                item,
                point,
                dist: d2.sqrt(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_index::knn::brute_force_knn;

    fn items(dim: usize, n: usize, seed: u64) -> Vec<(Point, u64)> {
        UniformGenerator::new(dim)
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect()
    }

    #[test]
    fn knn_matches_brute_force_low_dim() {
        for (dim, side) in [(2usize, 16usize), (3, 8), (5, 4)] {
            let data = items(dim, 1500, 1);
            let grid = GridFile::build(data.clone(), side).unwrap();
            for q in UniformGenerator::new(dim).generate(10, 2) {
                let got = grid.knn(&q, 6);
                let want = brute_force_knn(&data, &q, 6);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist - w.dist).abs() < 1e-12, "dim = {dim}");
                }
            }
        }
    }

    #[test]
    fn rejects_explosive_grids() {
        // 16 cells per axis in 16-d = 2^64 cells — the paper's wall.
        let data = items(16, 10, 3);
        assert!(matches!(
            GridFile::build(data, 16),
            Err(IndexError::BadParams(_))
        ));
    }

    #[test]
    fn occupancy_collapses_in_high_dim() {
        // Even a binary grid in 16-d leaves nearly all cells empty with
        // 10k points: 2^16 cells, <= 10k occupied.
        let data = items(16, 10_000, 4);
        let grid = GridFile::build(data, 2).unwrap();
        assert_eq!(grid.cell_count(), 65_536);
        assert!(grid.occupancy() < 0.15, "occupancy {}", grid.occupancy());
        // Compare: 2-d with the same points is densely occupied.
        let data = items(2, 10_000, 4);
        let grid = GridFile::build(data, 16).unwrap();
        assert!(grid.occupancy() > 0.9);
    }

    #[test]
    fn boundary_coordinates_land_in_cells() {
        let p0 = Point::new(vec![0.0, 0.0]).unwrap();
        let p1 = Point::new(vec![1.0, 1.0]).unwrap();
        let grid = GridFile::build(vec![(p0.clone(), 0), (p1.clone(), 1)], 4).unwrap();
        let res = grid.knn(&p1, 1);
        assert_eq!(res[0].item, 1);
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn cell_accounting_counts_visits() {
        let data = items(2, 2000, 5);
        let disk = Arc::new(SimDisk::new(0));
        let grid = GridFile::build(data, 16)
            .unwrap()
            .with_disk(Arc::clone(&disk));
        let q = Point::new(vec![0.5, 0.5]).unwrap();
        grid.knn(&q, 5);
        let visited = disk.read_count();
        assert!(visited >= 1);
        assert!(visited < 256, "visited {visited} of 256 cells");
    }
}
