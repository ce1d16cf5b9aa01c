//! The frozen flat scan: the benchmark's comparator and its oracle.
//!
//! **Never "optimise" this file.** It is the denominator of
//! `query_vs_flat` and the truth behind `recall_at_10`: a contiguous
//! row-major `Vec<f64>` copy of the live rows, scanned with a plain scalar
//! Σ(x−q)² and a bounded top-k. It calls no kernel of the repository, so a
//! kernel change can move neither the denominator nor the truth. A faster
//! flat scan belongs in the engine (ROADMAP 2(c)), where `query_vs_flat`
//! will show it; making this one faster only hides a regression.

use std::collections::HashMap;

/// Slack on the k-th true distance when scoring recall, so that neither
/// the kernels' summation order nor a tie at the k-th place costs a hit.
pub const RECALL_SLACK: f64 = 1e-9;

/// The live rows, row-major, with their item ids.
pub struct FlatIndex {
    dim: usize,
    rows: Vec<f64>,
    ids: Vec<u64>,
    slot_of: HashMap<u64, usize>,
}

impl FlatIndex {
    /// Copies `rows` (each of `dim` coordinates); row `i` gets id `i`,
    /// which is the id `EngineBuilder::build` gives it.
    pub fn new<'a>(dim: usize, rows: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let mut flat = FlatIndex {
            dim,
            rows: Vec::new(),
            ids: Vec::new(),
            slot_of: HashMap::new(),
        };
        for (i, row) in rows.into_iter().enumerate() {
            flat.insert(i as u64, row);
        }
        flat
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// The rows as one contiguous row-major slice.
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Adds a live row under `id`.
    pub fn insert(&mut self, id: u64, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension");
        let prev = self.slot_of.insert(id, self.ids.len());
        assert!(prev.is_none(), "id {id} inserted twice");
        self.ids.push(id);
        self.rows.extend_from_slice(row);
    }

    /// Drops the row of `id` (the last row moves into its slot); false if
    /// `id` is not live.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.slot_of.remove(&id) else {
            return false;
        };
        let last = self.ids.len() - 1;
        if slot != last {
            let (head, tail) = self.rows.split_at_mut(last * self.dim);
            head[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(tail);
            self.ids[slot] = self.ids[last];
            self.slot_of.insert(self.ids[slot], slot);
        }
        self.ids.pop();
        self.rows.truncate(last * self.dim);
        true
    }

    /// Squared distance from `query` to the live row of `id`, `None` when
    /// `id` is not live.
    pub fn dist2_to(&self, id: u64, query: &[f64]) -> Option<f64> {
        let slot = *self.slot_of.get(&id)?;
        Some(dist2(
            &self.rows[slot * self.dim..(slot + 1) * self.dim],
            query,
        ))
    }

    /// The `k` smallest squared distances from `query` with their ids,
    /// ascending: one pass over every live row.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(f64, u64)> {
        assert_eq!(query.len(), self.dim, "query dimension");
        let mut best: Vec<(f64, u64)> = Vec::with_capacity(k + 1);
        if k == 0 {
            return best;
        }
        for (row, &id) in self.rows.chunks_exact(self.dim).zip(&self.ids) {
            let d = dist2(row, query);
            if best.len() < k || d < best[best.len() - 1].0 {
                let at = best.partition_point(|&(b, _)| b <= d);
                best.insert(at, (d, id));
                best.truncate(k);
            }
        }
        best
    }
}

/// Plain scalar Σ(x−q)², summed front to back.
fn dist2(row: &[f64], query: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (x, q) in row.iter().zip(query) {
        let d = x - q;
        sum += d * d;
    }
    sum
}

/// How many of the `returned` distances lie within the true k-th distance
/// (`truth` is ascending, Euclidean, as are `returned`).
pub fn recall_hits(truth: &[f64], returned: impl IntoIterator<Item = f64>) -> usize {
    let Some(&kth) = truth.last() else {
        return 0;
    };
    let limit = kth * (1.0 + RECALL_SLACK);
    returned.into_iter().filter(|&d| d <= limit).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five points on a line and in the plane, distances worked by hand.
    #[test]
    fn hand_computed_case() {
        let rows: [[f64; 2]; 5] = [[0.0, 0.0], [3.0, 4.0], [1.0, 0.0], [0.0, 2.0], [6.0, 8.0]];
        let flat = FlatIndex::new(2, rows.iter().map(|r| r.as_slice()));
        assert_eq!(flat.len(), 5);
        // From the origin: 0, 1, 4, 25, 100.
        assert_eq!(flat.knn(&[0.0, 0.0], 3), vec![(0.0, 0), (1.0, 2), (4.0, 3)]);
        // From (3, 4): itself 0, then (0,2) at 9+4=13, (1,0) at 4+16=20.
        assert_eq!(
            flat.knn(&[3.0, 4.0], 3),
            vec![(0.0, 1), (13.0, 3), (20.0, 2)]
        );
        assert_eq!(flat.knn(&[0.0, 0.0], 9).len(), 5);
        assert_eq!(flat.dist2_to(4, &[0.0, 0.0]), Some(100.0));
        assert_eq!(flat.dist2_to(7, &[0.0, 0.0]), None);
    }

    #[test]
    fn insert_and_remove_keep_the_live_set() {
        let rows: [[f64; 1]; 4] = [[0.0], [1.0], [2.0], [3.0]];
        let mut flat = FlatIndex::new(1, rows.iter().map(|r| r.as_slice()));
        assert!(flat.remove(1));
        assert!(!flat.remove(1));
        flat.insert(9, &[1.5]);
        assert_eq!(flat.knn(&[1.0], 2), vec![(0.25, 9), (1.0, 0)]);
        assert_eq!(flat.dist2_to(1, &[0.0]), None);
        assert!(flat.remove(9) && flat.remove(3) && flat.remove(0));
        assert_eq!(flat.knn(&[0.0], 5), vec![(4.0, 2)]);
        assert_eq!(flat.rows(), &[2.0]);
    }

    #[test]
    fn recall_counts_ties_and_rounding_as_hits() {
        let truth = [1.0, 2.0, 2.0];
        // A different member of the tie at the k-th place still counts,
        // and so does a last-bit difference in the sum.
        assert_eq!(recall_hits(&truth, [1.0, 2.0, 2.0 + 1e-12]), 3);
        assert_eq!(recall_hits(&truth, [1.0, 2.0, 2.1]), 2);
        assert_eq!(recall_hits(&[], [1.0]), 0);
    }
}
