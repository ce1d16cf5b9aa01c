//! Correctness checks on every answer the engine gives during a run.

use parsim_geometry::Point;
use parsim_parallel::{EngineError, QueryResult};

use crate::flat::{recall_hits, FlatIndex};
use crate::workload::K;

/// Failure messages kept for the report; the count is kept in full.
const MAX_MESSAGES: usize = 8;

/// Counts operations and failures and scores recall against the flat
/// scan. It owns the oracle's copy of the live rows.
pub struct Checker {
    pub flat: FlatIndex,
    /// An answer must hold the true k nearest (recall 1), not a share.
    exact: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    hits: u64,
    scored: u64,
}

impl Checker {
    pub fn new(flat: FlatIndex, exact: bool) -> Self {
        Checker {
            flat,
            exact,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            hits: 0,
            scored: 0,
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_MESSAGES {
            self.failures.push(what);
        }
    }

    /// Counts one operation that is not a query (a write, a rebuild).
    pub fn op<T>(&mut self, what: &str, result: Result<T, EngineError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// The true `K` nearest distances of `query` over the live rows,
    /// ascending, Euclidean.
    pub fn truth(&self, query: &Point) -> Vec<f64> {
        self.flat
            .knn(query.coords(), K)
            .into_iter()
            .map(|(d2, _)| d2.sqrt())
            .collect()
    }

    /// Checks one answer: `K` results, ascending, every id live and
    /// unique, every reported distance the row's real distance; with a
    /// `truth`, scores recall, which must be 1 on an exact workload.
    pub fn answer(
        &mut self,
        query: &Point,
        result: Result<QueryResult, EngineError>,
        truth: Option<&[f64]>,
    ) {
        self.attempted += 1;
        let neighbors = match result {
            Ok(r) => r.neighbors,
            Err(e) => return self.fail(format!("query: {e}")),
        };
        let want = K.min(self.flat.len());
        if neighbors.len() != want {
            return self.fail(format!("{} results, want {want}", neighbors.len()));
        }
        let mut real = Vec::with_capacity(neighbors.len());
        for (i, n) in neighbors.iter().enumerate() {
            if i > 0 && n.dist < neighbors[i - 1].dist {
                return self.fail(format!("results not ascending at rank {i}"));
            }
            if neighbors[..i].iter().any(|m| m.item == n.item) {
                return self.fail(format!("item {} returned twice", n.item));
            }
            let Some(d2) = self.flat.dist2_to(n.item, query.coords()) else {
                return self.fail(format!(
                    "item {} is not live (removed id resurfaced)",
                    n.item
                ));
            };
            let d = d2.sqrt();
            if (d - n.dist).abs() > 1e-9 * d.max(1e-3) {
                return self.fail(format!(
                    "item {} reported at {} but lies at {d}",
                    n.item, n.dist
                ));
            }
            real.push(d);
        }
        if let Some(truth) = truth {
            let hits = recall_hits(truth, real);
            self.hits += hits as u64;
            self.scored += want as u64;
            if self.exact && hits < want {
                self.fail(format!("exact answer holds {hits} of the true {want}"));
            }
        }
    }

    /// Checks that the query for a just-inserted point finds it at
    /// distance 0.
    pub fn finds_itself(
        &mut self,
        item: u64,
        point: &Point,
        result: Result<QueryResult, EngineError>,
    ) {
        let found = result
            .as_ref()
            .is_ok_and(|r| r.neighbors.iter().any(|n| n.item == item && n.dist == 0.0));
        self.answer(point, result, None);
        if !found {
            self.fail(format!(
                "just-inserted item {item} not found by its own query"
            ));
        }
    }

    /// Share of scored neighbours within the true k-th distance.
    pub fn recall(&self) -> f64 {
        self.hits as f64 / self.scored as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_index::Neighbor;
    use parsim_storage::QueryCost;

    fn result(found: &[(u64, f64)]) -> Result<QueryResult, EngineError> {
        Ok(QueryResult {
            neighbors: found
                .iter()
                .map(|&(item, dist)| Neighbor {
                    item,
                    point: Point::from_vec(vec![item as f64]),
                    dist,
                })
                .collect(),
            cost: QueryCost::from_reads(vec![0], &parsim_storage::DiskModel::hp_workstation_1997()),
            trace: None,
        })
    }

    /// Twelve points 0..12 on a line; the true ten nearest of 0 are 0..10.
    fn checker(exact: bool) -> (Checker, Point, Vec<f64>) {
        let rows: Vec<[f64; 1]> = (0..12).map(|i| [f64::from(i)]).collect();
        let c = Checker::new(FlatIndex::new(1, rows.iter().map(|r| r.as_slice())), exact);
        let q = Point::from_vec(vec![0.0]);
        let truth = c.truth(&q);
        (c, q, truth)
    }

    #[test]
    fn a_true_answer_passes_and_scores_full_recall() {
        let (mut c, q, truth) = checker(true);
        assert_eq!(truth, (0..10).map(f64::from).collect::<Vec<_>>());
        let found: Vec<(u64, f64)> = (0..10).map(|i| (i, i as f64)).collect();
        c.answer(&q, result(&found), Some(&truth));
        assert_eq!((c.attempted, c.failed), (1, 0));
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn every_defect_is_caught() {
        let good: Vec<(u64, f64)> = (0..10).map(|i| (i, i as f64)).collect();
        let defects: Vec<(&str, Vec<(u64, f64)>)> = vec![
            ("short", good[..9].to_vec()),
            ("unordered", {
                let mut v = good.clone();
                v.swap(3, 4);
                v
            }),
            ("duplicate", {
                let mut v = good.clone();
                v[9] = (8, 8.0);
                v
            }),
            ("wrong distance", {
                let mut v = good.clone();
                v[9] = (9, 9.5);
                v
            }),
            ("missed neighbour", {
                let mut v = good.clone();
                v[9] = (11, 11.0);
                v
            }),
        ];
        for (what, found) in defects {
            let (mut c, q, truth) = checker(true);
            c.answer(&q, result(&found), Some(&truth));
            assert_eq!(c.failed, 1, "{what}");
        }
        // A removed id must not come back.
        let (mut c, q, _) = checker(true);
        assert!(c.flat.remove(4));
        c.answer(&q, result(&good), None);
        assert_eq!(c.failed, 1);
        // An approximate workload may miss a neighbour; recall shows it.
        let (mut c, q, truth) = checker(false);
        let mut v = good.clone();
        v[9] = (11, 11.0);
        c.answer(&q, result(&v), Some(&truth));
        assert_eq!(c.failed, 0);
        assert_eq!(c.recall(), 0.9);
        // Errors and a missing self-hit count as failures.
        c.answer(&q, Err(EngineError::ReadOnly), None);
        assert_eq!(c.op("insert", Err::<(), _>(EngineError::ReadOnly)), None);
        c.finds_itself(11, &Point::from_vec(vec![11.0]), result(&good));
        assert!(c.failed >= 3);
    }
}
