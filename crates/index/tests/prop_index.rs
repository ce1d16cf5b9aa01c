//! Property tests of the spatial index.

use proptest::prelude::*;

use parsim_geometry::{HyperRect, Point};
use parsim_index::knn::{brute_force_knn, forest_knn};
use parsim_index::node::{InnerEntries, NodeId};
use parsim_index::{KnnAlgorithm, SpatialTree, TreeParams, TreeVariant};

fn arb_points(dim: usize, range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(0.0f64..1.0, dim).prop_map(Point::from_vec),
        range,
    )
}

fn small_params(dim: usize, variant: TreeVariant) -> TreeParams {
    TreeParams::for_dim(dim, variant)
        .unwrap()
        .with_capacities(5, 5)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bulk loading and incremental insertion produce trees with the same
    /// query answers.
    #[test]
    fn bulk_and_insert_agree(pts in arb_points(4, 20..150), q in prop::collection::vec(0.0f64..1.0, 4)) {
        let q = Point::from_vec(q);
        let items: Vec<(Point, u64)> = pts.iter().enumerate().map(|(i, p)| (p.clone(), i as u64)).collect();

        let bulk = SpatialTree::bulk_load(small_params(4, TreeVariant::xtree_default()), items.clone()).unwrap();
        bulk.validate();
        let mut inc = SpatialTree::new(small_params(4, TreeVariant::xtree_default()));
        for (p, id) in &items {
            inc.insert(p.clone(), *id).unwrap();
        }
        inc.validate();
        prop_assert_eq!(bulk.bounds().cloned(), bulk.node(bulk.root_id()).mbr());

        let a = bulk.knn(&q, 7, KnnAlgorithm::Hs);
        let b = inc.knn(&q, 7, KnnAlgorithm::Hs);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x.dist - y.dist).abs() < 1e-12);
        }
    }

    /// A forest of trees answers exactly like one tree over the union.
    #[test]
    fn forest_equals_union(
        pts in arb_points(5, 30..200),
        splits in prop::collection::vec(0usize..4, 200),
        q in prop::collection::vec(0.0f64..1.0, 5),
    ) {
        let q = Point::from_vec(q);
        let items: Vec<(Point, u64)> = pts.iter().enumerate().map(|(i, p)| (p.clone(), i as u64)).collect();
        let want = brute_force_knn(&items, &q, 9);

        // Partition arbitrarily into 4 trees.
        let mut parts: Vec<Vec<(Point, u64)>> = vec![Vec::new(); 4];
        for (i, item) in items.iter().enumerate() {
            parts[splits[i % splits.len()]].push(item.clone());
        }
        let trees: Vec<SpatialTree> = parts
            .into_iter()
            .map(|part| {
                SpatialTree::bulk_load(small_params(5, TreeVariant::RStar), part).unwrap()
            })
            .collect();
        let refs: Vec<&SpatialTree> = trees.iter().collect();
        for algo in [KnnAlgorithm::Rkv, KnnAlgorithm::Hs] {
            let got = forest_knn(&refs, &q, 9, algo);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert!((g.dist - w.dist).abs() < 1e-12);
            }
        }
    }

    /// Window queries match a linear scan for arbitrary windows.
    #[test]
    fn window_matches_scan(
        pts in arb_points(3, 20..200),
        a in prop::collection::vec(0.0f64..1.0, 3),
        b in prop::collection::vec(0.0f64..1.0, 3),
    ) {
        let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        let window = HyperRect::new(lo, hi).unwrap();
        let items: Vec<(Point, u64)> = pts.iter().enumerate().map(|(i, p)| (p.clone(), i as u64)).collect();
        let tree = SpatialTree::bulk_load(small_params(3, TreeVariant::RStar), items).unwrap();
        let mut got: Vec<u64> = tree.window_query(&window).iter().map(|n| n.item).collect();
        got.sort_unstable();
        let want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| window.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Mixed insert/delete sequences preserve every structural invariant
    /// and the exact point multiset, and after every step the cached
    /// bounding rectangle equals the union recomputed from the root.
    #[test]
    fn churn_preserves_invariants(
        pts in arb_points(4, 40..120),
        ops in prop::collection::vec(any::<bool>(), 150),
    ) {
        let mut tree = SpatialTree::new(small_params(4, TreeVariant::xtree_default()));
        let mut live: Vec<(Point, u64)> = Vec::new();
        let mut next_id = 0u64;
        for (op_idx, p) in pts.iter().enumerate() {
            let delete = ops[op_idx % ops.len()] && !live.is_empty();
            if delete {
                let (dp, id) = live.swap_remove(live.len() / 2);
                tree.delete(&dp, id).unwrap();
            } else {
                tree.insert(p.clone(), next_id).unwrap();
                live.push((p.clone(), next_id));
                next_id += 1;
            }
            prop_assert_eq!(tree.bounds().cloned(), tree.node(tree.root_id()).mbr());
        }
        tree.validate();
        prop_assert_eq!(tree.len(), live.len());
        // Every live point is findable at distance zero.
        for (p, id) in live.iter().take(10) {
            let res = tree.knn(p, 1, KnnAlgorithm::Rkv);
            prop_assert_eq!(res[0].dist, 0.0);
            let _ = id;
        }
    }

    /// The one-pass slab MINDIST of a directory node equals
    /// `HyperRect::min_dist2` bit for bit in every supported dimension:
    /// queries outside, inside and exactly on a face, rectangles with
    /// degenerate (`lo == hi`) axes.
    #[test]
    fn slab_mindist_matches_rect_bitwise(
        pool in prop::collection::vec(-0.25f64..1.25, 63 * 2 * 6),
        free_q in prop::collection::vec(-0.5f64..1.5, 63),
        snap in prop::collection::vec(0usize..5, 63),
    ) {
        for dim in 1..=63usize {
            let rects: Vec<HyperRect> = pool
                .chunks_exact(2 * dim)
                .take(6)
                .map(|corners| {
                    let (a, b) = corners.split_at(dim);
                    let lo: Vec<f64> = a.iter().zip(b).map(|(x, y)| x.min(*y)).collect();
                    let hi = (0..dim)
                        .map(|j| if snap[j] == 4 { lo[j] } else { a[j].max(b[j]) })
                        .collect();
                    HyperRect::new(lo, hi).unwrap()
                })
                .collect();
            // Each query coordinate is free or sits on a face of the
            // first rectangle.
            let q = Point::from_vec(
                (0..dim)
                    .map(|j| match snap[j] {
                        0 => rects[0].lo(j),
                        1 => rects[0].hi(j),
                        _ => free_q[j],
                    })
                    .collect(),
            );
            let entries = InnerEntries::from_rects(dim, rects.iter().cloned().zip((0..).map(NodeId)));
            let got: Vec<u64> = entries.min_dists2(q.coords()).map(f64::to_bits).collect();
            let want: Vec<u64> = rects.iter().map(|r| r.min_dist2(&q).to_bits()).collect();
            prop_assert_eq!(got, want, "dim {}", dim);
        }
    }
}
