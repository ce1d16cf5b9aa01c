//! The engine-side runtime of the approximate tier: LSH buckets
//! declustered over the disk array.
//!
//! [`parsim_index::LshTables`] supplies the hash-function family; this
//! module owns its *placement*. Every `(table, signature)` bucket is a
//! `K`-bit quadrant code, so it goes through the paper's own coloring —
//! [`parsim_decluster::near_optimal::col`] over the signature bits,
//! complement-folded to the available disks — exactly as the exact tier
//! declusters its data buckets. Hamming-1 neighbor buckets get different
//! colors, and multi-probe widening flips low-margin signature bits
//! first, so the probe set of one query spreads over *different* disks
//! and the stage machine's per-disk pipeline, deadline shedding, and
//! fault handling carry over unchanged. A per-table disk
//! rotation keeps the aggregate load balanced across tables.
//!
//! The runtime stores every row once: one flat `Vec<f64>` of all rows
//! and their item ids, in build order, however many tables hash a row and
//! whichever disks own its buckets. Each disk holds one `DiskShard`, its
//! bucket directory `(table, signature) → row ids` into that shared store.
//! In the paper's model a disk is where page reads are charged, not which
//! buffer holds a row: bucket scans charge pages to the owning disk at the
//! same `rows → pages` rate as the exact tier's leaf scans, so modeled
//! times, `QueryCost`, and the metrics registry need no new accounting
//! path. When the engine is replicated, every shard also has a mirror
//! hosted on the next disk. The mirror is a modeled placement, not a copy:
//! a failed-over probe reads the failed disk's directory over the shared
//! rows and charges the pages to the host.

use std::collections::BTreeMap;

use parsim_decluster::near_optimal::{col, colors_required, fold_table};
use parsim_geometry::{kernel, Point};
use parsim_index::knn::{Neighbor, SearchStats};
use parsim_index::{LshConfig, LshTables};
use parsim_storage::PAGE_SIZE;

use crate::metrics::QueryTrace;

/// LSH-specific work counters of one query, carried next to the
/// [`SearchStats`] and folded into the trace at completion.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LshCounters {
    /// Buckets probed (over all tables and disks).
    pub(crate) probes: u64,
    /// Unique candidate rows whose exact distance was computed.
    pub(crate) candidates: u64,
    /// Probed buckets that held no rows — the recall proxy: a rising
    /// empty-probe share means the probe budget is wasted on vacuum.
    pub(crate) empty_probes: u64,
}

impl LshCounters {
    /// Copies the counters into the query's trace.
    pub(crate) fn fold_into(&self, trace: &mut QueryTrace) {
        trace.lsh_probes = self.probes;
        trace.lsh_candidates = self.candidates;
        trace.lsh_empty_probes = self.empty_probes;
    }
}

/// The probe targets of one query on one disk: every `(table, signature)`
/// bucket of the query's probe sequences that this disk owns.
#[derive(Debug, Clone)]
pub(crate) struct DiskProbes {
    /// The owning disk (primary placement).
    pub(crate) disk: usize,
    /// The buckets to inspect there.
    pub(crate) buckets: Vec<(u32, u32)>,
}

/// One disk's slice of the LSH index: its bucket directory.
#[derive(Default)]
pub(crate) struct DiskShard {
    /// `(table, signature) → rows` of the shared row store, in build
    /// order, ordered by key for a deterministic layout.
    buckets: BTreeMap<(u32, u32), Vec<u32>>,
}

/// The fitted, placed LSH index: the hash family, the one row store, and
/// one bucket directory per disk.
pub(crate) struct LshRuntime {
    tables: LshTables,
    /// Color → disk, `fold_table` over the signature-bit coloring.
    fold: Vec<u32>,
    /// Disks that can own primary shards (`min(disks, colors)`).
    usable: usize,
    /// Total disks of the engine (mirror hosts may exceed `usable`).
    disks: usize,
    /// Coordinates per row.
    dim: usize,
    /// Every row, flat row-major, in build order. Only the exact f64
    /// re-rank reads it, so it carries none of `VectorArena`'s mirrors.
    rows: Vec<f64>,
    /// `items[r]` is the item id of row `r`.
    items: Vec<u64>,
    shards: Vec<DiskShard>,
    /// Whether every shard has a mirror on `mirror_host(d)`.
    mirrored: bool,
    /// Rows per page of a bucket scan — the exact tier's leaf-entry math.
    rows_per_page: usize,
}

impl LshRuntime {
    /// Fits the hash family to `items` and builds the per-disk bucket
    /// directories over one copy of the rows. `mirrored` gives every shard
    /// a mirror host (the engine guarantees `disks >= 2` in that case).
    /// Item ids must be unique (the engine builders reject duplicates).
    pub(crate) fn build(
        config: LshConfig,
        dim: usize,
        items: &[(Point, u64)],
        disks: usize,
        mirrored: bool,
    ) -> LshRuntime {
        let tables = LshTables::fit(&config, dim, items.iter().map(|(p, _)| p.coords()));
        let bits = tables.bits();
        let colors = colors_required(bits) as usize;
        let usable = disks.min(colors).max(1);
        let fold = fold_table(colors as u32, usable);
        let rows_per_page = (PAGE_SIZE / (8 * dim + 8)).max(1);
        let mut rt = LshRuntime {
            tables,
            fold,
            usable,
            disks,
            dim,
            rows: Vec::with_capacity(items.len() * dim),
            items: Vec::with_capacity(items.len()),
            shards: (0..disks).map(|_| DiskShard::default()).collect(),
            mirrored,
            rows_per_page,
        };
        for (row, (p, item)) in items.iter().enumerate() {
            let row = u32::try_from(row).expect("the LSH tier addresses rows as u32");
            rt.rows.extend_from_slice(p.coords());
            rt.items.push(*item);
            for t in 0..rt.tables.tables() {
                let sig = rt.tables.signature(t, p.coords());
                let disk = rt.disk_of(t, sig);
                rt.shards[disk]
                    .buckets
                    .entry((t as u32, sig))
                    .or_default()
                    .push(row);
            }
        }
        rt
    }

    /// The primary disk of bucket `(table, sig)`: the paper's coloring
    /// over the signature bits, folded to the usable disks and rotated by
    /// the table index so no single disk carries every table's hot
    /// bucket. The rotation is a per-table bijection, so Hamming-1 probe
    /// targets still land on distinct disks within each table.
    fn disk_of(&self, table: usize, sig: u32) -> usize {
        let color = col(sig as u64, self.tables.bits()) as usize;
        (self.fold[color] as usize + table) % self.usable
    }

    /// The disk hosting the mirror of `disk`'s shard, or `None` for
    /// an unreplicated engine.
    pub(crate) fn mirror_host(&self, disk: usize) -> Option<usize> {
        self.mirrored.then(|| (disk + 1) % self.disks)
    }

    /// Groups the query's probe targets — `probes` buckets per table, in
    /// multi-probe order — by owning disk, ascending. This is the
    /// query's LSH itinerary for the pooled pipeline.
    pub(crate) fn plan(&self, query: &Point, probes: usize) -> Vec<DiskProbes> {
        let probes = probes.max(1);
        let mut by_disk: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
        for t in 0..self.tables.tables() {
            for sig in self.tables.probe_sequence(t, query.coords(), probes) {
                by_disk
                    .entry(self.disk_of(t, sig))
                    .or_default()
                    .push((t as u32, sig));
            }
        }
        by_disk
            .into_iter()
            .map(|(disk, buckets)| DiskProbes { disk, buckets })
            .collect()
    }

    /// Scans `disk`'s buckets for the given probe targets: charges
    /// pages to `stats`, computes the exact f64 squared distance of every
    /// unique row, and returns that disk's `k` best sorted by
    /// `(dist2, item)`, as the tree heap ranks (the global top-`k` is a
    /// subset of the union of per-disk top-`k`s). The square root is taken
    /// only for the returned rows.
    ///
    /// The buckets hold row ids into the one shared row store, so a
    /// candidate costs one distance computation: the probed buckets' ids
    /// are gathered and deduplicated (a row several tables hash to the
    /// probed buckets is scored once), each is scored in place, the `k`
    /// best are selected, and only those become [`Neighbor`]s.
    pub(crate) fn scan_disk(
        &self,
        disk: usize,
        buckets: &[(u32, u32)],
        query: &Point,
        k: usize,
        stats: &mut SearchStats,
        counters: &mut LshCounters,
    ) -> Vec<Neighbor> {
        let directory = &self.shards[disk].buckets;
        let mut rows: Vec<u32> = Vec::new();
        for key in buckets {
            counters.probes += 1;
            let Some(bucket) = directory.get(key).filter(|r| !r.is_empty()) else {
                counters.empty_probes += 1;
                continue;
            };
            stats.pages += (bucket.len().div_ceil(self.rows_per_page)).max(1) as u64;
            rows.extend_from_slice(bucket);
        }
        rows.sort_unstable();
        rows.dedup();
        stats.dist_evals += rows.len() as u64;
        counters.candidates += rows.len() as u64;
        if k == 0 {
            return Vec::new();
        }

        let mut scored: Vec<(f64, u64, u32)> = rows
            .iter()
            .map(|&row| {
                let dist2 = kernel::dist2(self.row(row), query.coords());
                (dist2, self.items[row as usize], row)
            })
            .collect();
        let by_key =
            |a: &(f64, u64, u32), b: &(f64, u64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if k < scored.len() {
            scored.select_nth_unstable_by(k - 1, by_key);
            scored.truncate(k);
        }
        scored.sort_unstable_by(by_key);
        scored
            .into_iter()
            .map(|(dist2, item, row)| Neighbor {
                item,
                point: Point::from_vec(self.row(row).to_vec()),
                dist: dist2.sqrt(),
            })
            .collect()
    }

    /// The coordinates of shared row `row`.
    fn row(&self, row: u32) -> &[f64] {
        let start = row as usize * self.dim;
        &self.rows[start..start + self.dim]
    }

    /// Scans the mirror of `disk`'s shard (the failover path). The mirror
    /// holds no rows of its own: it reads `disk`'s directory over the
    /// shared rows, so its candidates and page count equal the primary
    /// scan's. The caller charges `stats` to the *host* disk.
    pub(crate) fn scan_mirror(
        &self,
        disk: usize,
        buckets: &[(u32, u32)],
        query: &Point,
        k: usize,
        stats: &mut SearchStats,
        counters: &mut LshCounters,
    ) -> Vec<Neighbor> {
        assert!(self.mirrored, "mirror scan on an unreplicated LSH tier");
        self.scan_disk(disk, buckets, query, k, stats, counters)
    }

    /// A deterministic byte serialization of every shard's bucket layout
    /// — disks in order, buckets in `(table, signature)` order, rows as
    /// item ids. Two runtimes built from the same `(config, items)` are
    /// byte-identical here; the seeded-determinism regression test pins
    /// exactly that.
    pub(crate) fn layout_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&(shard.buckets.len() as u64).to_le_bytes());
            for (&(t, sig), rows) in &shard.buckets {
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&sig.to_le_bytes());
                out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for &row in rows {
                    out.extend_from_slice(&self.items[row as usize].to_le_bytes());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::merge_candidates;
    use parsim_datagen::{DataGenerator, UniformGenerator};

    fn items(n: usize, dim: usize, seed: u64) -> Vec<(Point, u64)> {
        UniformGenerator::new(dim)
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect()
    }

    #[test]
    fn every_item_is_reachable_through_its_own_signature() {
        let data = items(500, 6, 21);
        let cfg = LshConfig::new(3).tables(4).hyperplanes(8);
        let rt = LshRuntime::build(cfg, 6, &data, 8, false);
        for (p, item) in &data {
            // Probing the item's own buckets with probes=1 must surface it.
            let plan = rt.plan(p, 1);
            let mut found = false;
            for dp in &plan {
                let mut stats = SearchStats::default();
                let mut c = LshCounters::default();
                let local = rt.scan_disk(dp.disk, &dp.buckets, p, usize::MAX, &mut stats, &mut c);
                if local.iter().any(|n| n.item == *item && n.dist == 0.0) {
                    found = true;
                }
            }
            assert!(found, "item {item} not found through its own signature");
        }
    }

    #[test]
    fn probe_targets_of_one_table_spread_over_disks() {
        let data = items(400, 8, 5);
        let cfg = LshConfig::new(11).tables(1).hyperplanes(10);
        let rt = LshRuntime::build(cfg, 8, &data, 8, false);
        let q = &data[7].0;
        // The first 4 probes of table 0 are the signature and 3 Hamming-1
        // flips: the coloring sends each flip to a different disk.
        let plan = rt.plan(q, 4);
        let targets: usize = plan.iter().map(|d| d.buckets.len()).sum();
        assert_eq!(targets, 4);
        assert!(plan.len() >= 3, "probes landed on {} disks", plan.len());
    }

    #[test]
    fn layout_is_deterministic_and_seed_sensitive() {
        let data = items(300, 5, 9);
        let cfg = LshConfig::new(7).tables(3).hyperplanes(9);
        let a = LshRuntime::build(cfg, 5, &data, 6, false);
        let b = LshRuntime::build(cfg, 5, &data, 6, false);
        assert_eq!(a.layout_bytes(), b.layout_bytes());
        let other = LshRuntime::build(
            LshConfig::new(8).tables(3).hyperplanes(9),
            5,
            &data,
            6,
            false,
        );
        assert_ne!(a.layout_bytes(), other.layout_bytes());
    }

    #[test]
    fn mirror_scans_return_the_primary_candidates_and_pages() {
        let data = items(200, 4, 3);
        let cfg = LshConfig::new(2).tables(2).hyperplanes(6);
        let rt = LshRuntime::build(cfg, 4, &data, 4, true);
        // One copy of the rows, however many tables and mirrors there are.
        assert_eq!(rt.rows.len(), 200 * 4);
        let q = &data[11].0;
        let plan = rt.plan(q, 2);
        for dp in &plan {
            let (mut s1, mut s2) = (SearchStats::default(), SearchStats::default());
            let (mut c1, mut c2) = (LshCounters::default(), LshCounters::default());
            let prim = rt.scan_disk(dp.disk, &dp.buckets, q, 10, &mut s1, &mut c1);
            let mirr = rt.scan_mirror(dp.disk, &dp.buckets, q, 10, &mut s2, &mut c2);
            assert_eq!(prim, mirr);
            assert_eq!(prim, union_oracle(&rt, dp.disk, &dp.buckets, q, 10));
            assert_eq!(s1.pages, s2.pages);
            assert_eq!(s1.dist_evals, s2.dist_evals);
            assert_eq!(c1.candidates, c2.candidates);
            assert!(rt.mirror_host(dp.disk).is_some());
            assert_ne!(rt.mirror_host(dp.disk), Some(dp.disk));
        }
        let plain = LshRuntime::build(cfg, 4, &data, 4, false);
        assert!(plain.mirror_host(0).is_none());
    }

    /// The scan's oracle: every row of the probed buckets, once, ranked
    /// by `(dist2, item)` through `Point::dist2` and cut to `k`.
    fn union_oracle(
        rt: &LshRuntime,
        disk: usize,
        buckets: &[(u32, u32)],
        q: &Point,
        k: usize,
    ) -> Vec<Neighbor> {
        let rows: std::collections::BTreeSet<u32> = buckets
            .iter()
            .filter_map(|key| rt.shards[disk].buckets.get(key))
            .flatten()
            .copied()
            .collect();
        let mut all: Vec<(f64, Neighbor)> = rows
            .into_iter()
            .map(|row| {
                let point = Point::from_vec(rt.row(row).to_vec());
                let dist2 = point.dist2(q);
                let item = rt.items[row as usize];
                let dist = dist2.sqrt();
                (dist2, Neighbor { item, point, dist })
            })
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.item.cmp(&b.1.item)));
        all.into_iter().take(k).map(|(_, n)| n).collect()
    }

    fn scan(rt: &LshRuntime, dp: &DiskProbes, q: &Point, k: usize) -> (Vec<Neighbor>, u64) {
        let mut stats = SearchStats::default();
        let mut c = LshCounters::default();
        let got = rt.scan_disk(dp.disk, &dp.buckets, q, k, &mut stats, &mut c);
        assert_eq!(stats.dist_evals, c.candidates);
        (got, c.candidates)
    }

    #[test]
    fn a_row_in_several_probed_tables_is_scored_and_returned_once() {
        let data = items(300, 5, 17);
        let cfg = LshConfig::new(4).tables(4).hyperplanes(6);
        // One disk owns every bucket, so a query's own row sits in all four
        // of the buckets that disk is asked to probe.
        let rt = LshRuntime::build(cfg, 5, &data, 1, false);
        let (q, item) = &data[42];
        let plan = rt.plan(q, 1);
        assert_eq!(plan.len(), 1);
        let dp = &plan[0];
        assert_eq!(dp.buckets.len(), 4);
        let gathered: usize = dp
            .buckets
            .iter()
            .map(|key| rt.shards[0].buckets[key].len())
            .sum();
        let oracle = union_oracle(&rt, 0, &dp.buckets, q, usize::MAX);
        let (got, candidates) = scan(&rt, dp, q, usize::MAX);
        assert_eq!(candidates as usize, oracle.len());
        assert!(oracle.len() < gathered, "no row was shared between tables");
        assert_eq!(got, oracle);
        assert_eq!(got.iter().filter(|n| n.item == *item).count(), 1);
        assert_eq!((got[0].item, got[0].dist), (*item, 0.0));
    }

    #[test]
    fn k_zero_scores_the_candidates_but_returns_nothing() {
        let data = items(300, 6, 8);
        let cfg = LshConfig::new(5).tables(3).hyperplanes(7);
        let rt = LshRuntime::build(cfg, 6, &data, 4, false);
        let q = &data[3].0;
        for dp in rt.plan(q, 2) {
            let (got, candidates) = scan(&rt, &dp, q, 0);
            assert!(got.is_empty());
            assert_eq!(
                candidates as usize,
                union_oracle(&rt, dp.disk, &dp.buckets, q, usize::MAX).len()
            );
        }
    }

    #[test]
    fn the_scan_is_the_top_k_of_the_probed_rows() {
        let data = items(400, 7, 12);
        let cfg = LshConfig::new(6).tables(4).hyperplanes(8);
        let rt = LshRuntime::build(cfg, 7, &data, 4, false);
        for qi in [0, 77, 199] {
            let q = &data[qi].0;
            for dp in rt.plan(q, 3) {
                let all = union_oracle(&rt, dp.disk, &dp.buckets, q, usize::MAX);
                // k at, above and far above the candidate count returns them
                // all in order; k below it returns the oracle's prefix.
                for k in [all.len(), all.len() + 1, usize::MAX, 1, 3, all.len() / 2] {
                    let (got, _) = scan(&rt, &dp, q, k);
                    assert_eq!(
                        got,
                        all[..k.min(all.len())],
                        "query {qi} disk {} k {k}",
                        dp.disk
                    );
                }
            }
        }
    }

    #[test]
    fn merge_unique_collapses_cross_disk_duplicates() {
        let q = Point::new(vec![0.0, 0.0]).unwrap();
        let n = |item: u64, dist: f64| Neighbor {
            item,
            point: Point::new(vec![dist, 0.0]).unwrap(),
            dist,
        };
        let a = vec![n(1, 0.5), n(2, 0.7)];
        let b = vec![n(1, 0.5), n(3, 0.6)];
        let merged = merge_candidates([a.as_slice(), b.as_slice()].into_iter(), &q, 10);
        let ids: Vec<u64> = merged.iter().map(|m| m.item).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    /// Two rows at squared distances 4 + 2⁻⁵⁰ (id 0) and 4 (id 1) from the
    /// origin: both `sqrt` to exactly 2, so only `(dist2, item)` ranks id 1
    /// first.
    fn sqrt_tie() -> (Point, Point, Point) {
        let near = Point::new(vec![2.0, 0.0]).unwrap();
        let far = Point::new(vec![2.0, 2f64.powi(-25)]).unwrap();
        let origin = Point::new(vec![0.0, 0.0]).unwrap();
        assert!(far.dist2(&origin) > near.dist2(&origin));
        assert_eq!(far.dist(&origin), near.dist(&origin));
        (near, far, origin)
    }

    #[test]
    fn the_scan_ranks_by_squared_distance_under_a_sqrt_tie() {
        let (near, far, origin) = sqrt_tie();
        // A far third row moves the centering mean away, so one hyperplane
        // keeps the tied pair on one side.
        let data = vec![
            (far, 0),
            (near, 1),
            (Point::new(vec![-10.0, -10.0]).unwrap(), 2),
        ];
        let rt = LshRuntime::build(
            LshConfig::new(1).tables(1).hyperplanes(1),
            2,
            &data,
            1,
            false,
        );
        let bucket = rt.shards[0]
            .buckets
            .iter()
            .find(|(_, rows)| rows.contains(&0))
            .map(|(&key, rows)| (key, rows.clone()))
            .unwrap();
        assert!(bucket.1.contains(&1), "the tied pair shares a bucket");
        let dp = DiskProbes {
            disk: 0,
            buckets: vec![bucket.0],
        };
        let (got, _) = scan(&rt, &dp, &origin, 1);
        assert_eq!((got[0].item, got[0].dist), (1, 2.0));
    }

    #[test]
    fn the_merge_ranks_by_squared_distance_under_a_sqrt_tie() {
        let (near, far, origin) = sqrt_tie();
        let n = |item: u64, point: Point| Neighbor {
            item,
            dist: point.dist(&origin),
            point,
        };
        // One candidate per disk: the merge alone decides.
        let a = vec![n(0, far)];
        let b = vec![n(1, near)];
        for locals in [[&a, &b], [&b, &a]] {
            let merged = merge_candidates(locals.into_iter().map(Vec::as_slice), &origin, 1);
            assert_eq!(merged.len(), 1);
            assert_eq!(merged[0].item, 1);
        }
    }
}
